//! The version commit — what `close`, `sync` and `copy_file` run — and the
//! records of the commits still in flight on a background lane.

use std::sync::Arc;

use cloud_store::store::OpCtx;
use cloud_store::types::Permission;
use scfs_crypto::ContentHash;
use sim_core::background::Pending;
use sim_core::time::SimInstant;

use super::handles::OpenFile;
use super::ScfsAgent;
use crate::cache::WriteMode;
use crate::durability::DurabilityLevel;
use crate::error::ScfsError;
use crate::fs::FileSystem;
use crate::types::{manifest_rides_inline, normalize_path, ChunkMap, FileHandle, FileMetadata};

/// What a commit puts in the storage service — the one step that varies
/// between `close`/`sync` and `copy_file`.
#[derive(Clone, Copy)]
enum NewVersion<'a> {
    /// The buffer of a handle, laid out by `map`: its dirty chunks go up.
    Data {
        data: &'a [u8],
        map: &'a ChunkMap,
        prev: Option<&'a ChunkMap>,
    },
    /// The version of `src` stored under `root`: a manifest-only copy that
    /// references its chunks through the chunk store's refcounts — zero
    /// chunk transfers, and when `src` carries its manifest inline zero
    /// manifest reads and zero manifest writes: no cloud request at all.
    CopyOf {
        src: &'a FileMetadata,
        root: ContentHash,
    },
}

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

    /// Close backpressure: blocks until fewer than `max_pending_uploads`
    /// background commits are in flight, waiting on the earliest completion
    /// token.
    fn apply_close_backpressure(&mut self) {
        self.reap_completed_uploads();
        let max = self.config.max_pending_uploads.max(1);
        while self.pending_uploads.len() >= max {
            let Some(earliest) = self.pending_uploads.values().map(|p| p.ready_at()).min() else {
                break;
            };
            self.stats.backpressure_stalls += 1;
            self.clock.advance_to(earliest);
            self.reap_completed_uploads();
        }
    }

    /// The commit (Figure 4, close path), on whichever clock `self.clock`
    /// currently is: `version` to the storage service, its hash to the
    /// consistency anchor, and — when `unlock` is set — the write lock
    /// released. Returns the committed metadata, or `Ok(None)` when the
    /// backend cannot commit a [`NewVersion::CopyOf`] (the caller
    /// materializes instead, under the lock it still holds), and the instant
    /// the anchor update returned: where a waiting close returns.
    ///
    /// A failed commit still releases the lock: the caller has dropped the
    /// handle and can retry nothing, so holding on would lock every other
    /// writer out for a full lease over an error the caller was told about.
    /// The release is never the commit's error: it lands after the close
    /// returned, and the lease covers one that fails.
    fn commit(
        &mut self,
        metadata: FileMetadata,
        version: NewVersion<'_>,
        unlock: bool,
    ) -> (Result<Option<FileMetadata>, ScfsError>, SimInstant) {
        let lock_id = metadata.storage_id.clone();
        let committed = self.store_and_anchor(metadata, version);
        let anchored = self.clock.now();
        if unlock && !matches!(committed, Ok(None)) {
            self.release_lock(&lock_id);
        }
        (committed, anchored)
    }

    /// Releases this session's write lock on `id`, best effort, on
    /// whichever clock `self.clock` currently is.
    fn release_lock(&mut self, id: &str) {
        if let Some(locks) = &self.locks {
            let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
            locks.unlock(&mut ctx, id).ok();
        }
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

    /// Steps w2 and w3 of the consistency-anchor write (Figure 3).
    fn store_and_anchor(
        &mut self,
        mut metadata: FileMetadata,
        version: NewVersion<'_>,
    ) -> Result<Option<FileMetadata>, ScfsError> {
        // A freshly written manifest object must carry the file ACL so that
        // every user the file is shared with — including its owner, when the
        // writer is a grantee — can read the new version. The backend tags
        // exactly that object, if this write stores one; a manifest that
        // rides in the tuple is admitted by the tuple's own ACL.
        let cloud_acl = (metadata.is_shared() || metadata.owner != self.user).then(|| {
            let mut acl = metadata.acl.clone();
            acl.grant(metadata.owner.clone(), Permission::Write);
            acl.grant(self.user.clone(), Permission::Write);
            acl
        });
        let (id, acl) = (&metadata.storage_id, cloud_acl.as_ref());
        let opts = self.transfer_options();
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let stored = match version {
            NewVersion::Data { data, map, prev } => {
                let is_new = metadata.version_hash.is_none();
                Some(
                    self.storage
                        .write_version(&mut ctx, id, data, map, prev, is_new, acl, &opts)?,
                )
            }
            NewVersion::CopyOf { src, root } => match src.inline_manifest()? {
                // The tuple already delivered the source map: hand it down so
                // the backend reads no manifest, tracked or not.
                Some(map) => self.storage.copy_version_with_map(
                    &mut ctx,
                    &src.storage_id,
                    id,
                    &root,
                    &map,
                    acl,
                )?,
                None => self
                    .storage
                    .copy_version(&mut ctx, &src.storage_id, id, &root, acl)?,
            },
        };
        let Some(outcome) = stored else {
            return Ok(None);
        };
        self.stats.cloud_uploads += 1;
        self.stats.chunk_uploads += outcome.chunks_uploaded;
        self.stats.bytes_uploaded += outcome.bytes_uploaded;
        self.stats.transfer_waves += outcome.waves;
        self.stats.dedup_hits_cross_file += outcome.dedup_cross_file;
        let now = ctx.clock.now();
        match version {
            NewVersion::Data { map, .. } => metadata.commit_version(map, now),
            NewVersion::CopyOf { src, .. } => metadata.commit_copy_of(src, now),
        }
        self.metadata.update(&mut ctx, metadata.clone())?;
        Ok(Some(metadata))
    }

    /// Runs [`ScfsAgent::commit`] on the object's lane — commits of the same
    /// object serialize, different objects overlap — no earlier than
    /// `not_before`, and settles it the way the caller's mode prescribes.
    /// `wait` (a blocking close, any `sync`): the foreground waits for the
    /// anchor update — not for the lock release behind it, which the job
    /// still sends and a write-open of the object waits for. Otherwise the
    /// call returns now and everyone else waits on this object's token; at
    /// most `max_pending_uploads` such commits are in flight, the call
    /// stalling on the earliest one. This client's own view needs no
    /// separate update: the job's metadata update has already refreshed the
    /// local caches.
    fn run_commit(
        &mut self,
        not_before: Option<SimInstant>,
        metadata: FileMetadata,
        version: NewVersion<'_>,
        unlock: bool,
        wait: bool,
    ) -> Result<Option<FileMetadata>, ScfsError> {
        if !wait {
            self.apply_close_backpressure();
        }
        let lane = metadata.storage_id.clone();
        let start = not_before.map_or(self.clock.now(), |at| self.clock.now().max(at));
        let token = self.on_lane(start, &lane, |agent| {
            agent.commit(metadata, version, unlock)
        });
        let (started_at, ready_at) = (token.started_at(), token.ready_at());
        let (committed, anchored) = token.into_inner();
        if wait {
            self.clock.advance_to(anchored);
            self.release_in_flight(lane, ready_at);
            return committed;
        }
        let committed = committed?;
        if let Some(md) = &committed {
            // A second commit of the same object supersedes the earlier
            // record: the lane already ordered the commits, and the later
            // token covers the earlier one.
            self.pending_uploads
                .insert(lane, Pending::new(md.clone(), started_at, ready_at));
        }
        Ok(committed)
    }

    /// Writes each chunk of `map` into the disk cache (durability level 1:
    /// the data survives a client restart even before the cloud upload
    /// commits) — and, under [`WriteMode::Through`], the memory cache.
    pub(super) fn spill_chunks(&mut self, map: &ChunkMap, data: &[u8], mode: WriteMode) {
        for (index, chunk_hash) in map.chunks().iter().enumerate() {
            let key = Self::chunk_cache_key(chunk_hash);
            let chunk: Arc<[u8]> = Arc::from(&data[map.byte_range(index)]);
            self.cache
                .put(&mut self.clock, &key, chunk, Some(*chunk_hash), mode);
        }
    }

    /// The chunk map of `file`'s buffer: the newest map the handle has,
    /// re-cut and re-hashed over the dirty extent only.
    pub(super) fn cut_buffer(&mut self, file: &OpenFile) -> ChunkMap {
        let (map, rehashed) = ChunkMap::rebuild(
            file.staged.as_ref().or(file.chunk_map.as_ref()),
            &file.buffer,
            file.dirty.clone().unwrap_or(0..0),
            self.config.cut_rule(),
        );
        self.stats.rehashed_bytes += rehashed;
        map
    }

    /// Commits `file`'s buffer as the new version of its object. The buffer
    /// is chunked — the version's root hash, the one hash the anchor stores,
    /// follows from the map alone, before any cloud access — and written
    /// into both cache levels, so the data always reaches the local disk
    /// first (level 1); the manifest goes with it unless the metadata tuple
    /// will carry that ([`manifest_rides_inline`]: a cache entry nobody
    /// looks up would only displace a chunk). Then the commit runs. Returns
    /// the version's map and the committed metadata.
    fn commit_buffer(
        &mut self,
        file: &OpenFile,
        unlock: bool,
        wait: bool,
    ) -> Result<(ChunkMap, Option<FileMetadata>), ScfsError> {
        let map = self.cut_buffer(file);
        self.spill_chunks(&map, &file.buffer, WriteMode::Through);
        let manifest = map.encode();
        if !manifest_rides_inline(&manifest) {
            let root = scfs_crypto::sha256(&manifest);
            self.cache.put(
                &mut self.clock,
                &Self::manifest_cache_key(&root),
                manifest.into(),
                Some(root),
                WriteMode::Through,
            );
        }
        self.written_since_gc += file.buffer.len() as u64;
        let version = NewVersion::Data {
            data: &file.buffer,
            map: &map,
            prev: file.chunk_map.as_ref(),
        };
        let committed = self.run_commit(None, file.metadata.clone(), version, unlock, wait)?;
        self.maybe_run_gc();
        Ok((map, committed))
    }

    pub(super) fn close_file(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.charge_syscall();
        let file = self
            .open_files
            .remove(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        if !file.is_dirty() {
            // Nothing to synchronize; just release the lock if we held it —
            // on the object's lane, behind any in-flight commit of it, and
            // without waiting.
            if file.locked {
                let id = file.metadata.storage_id;
                let now = self.clock.now();
                let released = self.on_lane(now, &id, |agent| agent.release_lock(&id));
                self.release_in_flight(id, released.ready_at());
            }
            return Ok(());
        }
        // A dirty handle is always fully materialized (writes and truncates
        // fault the whole file in first), so the buffer is the new version.
        debug_assert!(file.present.is_none(), "dirty handle left sparse");
        self.commit_buffer(&file, file.locked, self.config.mode.blocking_close())?;
        Ok(())
    }

    /// The `sync` path on one open file: promote its current contents to
    /// cloud durability (see [`crate::durability`]). A dirty or
    /// never-committed handle is committed like a close that waits — but the
    /// handle stays open and keeps its lock; a clean handle waits on the
    /// object's in-flight token, if any.
    pub(super) fn sync_open(&mut self, file: &mut OpenFile) -> Result<DurabilityLevel, ScfsError> {
        if file.is_dirty() || file.metadata.version_hash.is_none() {
            self.materialize(file)?;
            // The lane orders this commit behind any in-flight upload of the
            // same object; the new token supersedes the pending record.
            self.pending_uploads.remove(&file.metadata.storage_id);
            let (map, committed) = self.commit_buffer(file, false, true)?;
            if let Some(metadata) = committed {
                file.metadata = metadata;
            }
            file.chunk_map = Some(map);
            file.staged = None;
            file.present = None;
            file.dirty = None;
        } else {
            self.wait_pending_uploads(|id, _| id == file.metadata.storage_id);
        }
        Ok(self.storage.cloud_durability())
    }

    /// Manifest-only copy: the destination's new version references the
    /// source version's chunks through the global chunk store's refcounts,
    /// so zero chunks move — only a metadata update and, for a source whose
    /// manifest is an object rather than part of its tuple, a manifest — and
    /// every referenced chunk counts as a cross-file dedup hit
    /// ([`AgentStats::dedup_hits_cross_file`]). Falls back to the
    /// materializing open/read/write/close path (the trait default) when the
    /// source has no committed version or the backend keeps no chunk
    /// registry.
    pub(super) fn copy(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        let from = self.enter(from)?;
        let to = normalize_path(to)?;
        let src = self.lookup_file(&from)?;
        // This agent's own in-flight commit of the source is part of its
        // view (read-your-writes), and fixes the commit's lower time bound:
        // no earlier than the source's chunks are in the cloud.
        let src = self.with_pending_commit(&from, src);
        let src_ready = self.pending_by_path(&from).map(Pending::ready_at);
        // Like the materializing default (whose `open` reads the committed
        // version, never another handle's dirty buffer), the copy source is
        // the last committed version; a file that never committed one falls
        // back to the open/read/write path.
        let Some(root) = src.version_hash else {
            return self.copy_through_handles(&from, &to);
        };
        // The destination is what a write-open would have set up: a new
        // version of an existing file or a fresh object, under its lock.
        let (dst, locked) = self.resolve_file(&to, true, true)?;
        let version = NewVersion::CopyOf { src: &src, root };
        let wait = self.config.mode.blocking_close();
        match self.run_commit(src_ready, dst, version, locked, wait)? {
            Some(_) => {
                self.written_since_gc += src.size;
                self.maybe_run_gc();
                Ok(())
            }
            // The backend keeps no chunk registry for the source (or a
            // chunk is no longer stored): materialize instead.
            None => self.copy_through_handles(&from, &to),
        }
    }

    /// The fallback copy: materialize the source and write it through the
    /// normal open/read/write/close path (what the [`FileSystem`] trait
    /// default does for every other system).
    fn copy_through_handles(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        let data = self.read_file(from)?;
        self.write_file(to, &data)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{test_agent, wan_agent};
    use super::*;
    use crate::backend::FileStorage;
    use crate::backend::SingleCloudStorage;
    use crate::config::{Mode, ScfsConfig};
    use crate::fs::FileSystem;
    use crate::types::OpenFlags;
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
        config.chunk_size = Bytes::kib(4);
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

    #[test]
    fn copy_file_is_manifest_only_and_counts_dedup_hits() {
        let mut fs = test_agent(Mode::Blocking);
        // Four distinct 1 MiB chunks.
        let mut data = vec![0u8; 4 << 20];
        for (i, chunk) in data.chunks_mut(1 << 20).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        fs.write_file("/src", &data).unwrap();
        let chunks_before = fs.stats().chunk_uploads;
        let dedup_before = fs.stats().dedup_hits_cross_file;
        fs.copy_file("/src", "/dst").unwrap();
        assert_eq!(
            fs.stats().chunk_uploads,
            chunks_before,
            "a manifest-only copy moves zero chunks"
        );
        assert_eq!(
            fs.stats().dedup_hits_cross_file,
            dedup_before + 4,
            "every referenced chunk is a cross-file dedup hit"
        );
        assert_eq!(fs.read_file("/dst").unwrap(), data);
        assert_eq!(fs.stat("/dst").unwrap().size, data.len() as u64);
        // The source stays intact and independently versioned.
        assert_eq!(fs.read_file("/src").unwrap(), data);
    }

    #[test]
    fn copy_file_never_re_reads_a_manifest_the_tuple_delivered() {
        // Two backend instances over one cloud — two processes of one
        // account. The second one's registry has never heard of `/src`, so
        // `copy_version` would have to fetch its manifest from the cloud;
        // the tuple already carried it.
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
        // Identical content written through the second instance: its chunk
        // store now holds the chunk a manifest-only copy will reference.
        second.write_file("/twin", &data).unwrap();
        let before = (cloud.metrics().snapshot(), second.stats());
        second.copy_file("/src", "/dst").unwrap();
        let after = (cloud.metrics().snapshot(), second.stats());
        assert_eq!(after.0.gets, before.0.gets, "no manifest GET, no chunk GET");
        assert_eq!(after.0.puts, before.0.puts, "its manifest rides inline");
        assert_eq!(after.1.bytes_uploaded, before.1.bytes_uploaded);
        assert_eq!(after.1.chunk_uploads, before.1.chunk_uploads);
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
        config.chunk_size = Bytes::new(4096);
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

    #[test]
    fn close_backpressure_bounds_the_pending_upload_queue() {
        let mut config = ScfsConfig::test(Mode::NonBlocking);
        config.max_pending_uploads = 2;
        let mut fs = wan_agent(config);
        for i in 0..5 {
            fs.write_file(&format!("/f{i}"), &vec![i as u8; 400_000])
                .unwrap();
        }
        assert!(
            fs.stats().backpressure_stalls >= 1,
            "the third close must stall behind the two pending uploads"
        );
        assert!(fs.pending_uploads.len() <= 2);
    }
}
