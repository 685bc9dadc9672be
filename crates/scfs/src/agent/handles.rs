//! The open-file table: `open`, and the byte-range read, write and truncate
//! paths over a handle's lazily materialized buffer.

use std::collections::HashMap;
use std::ops::Range;

use cloud_store::store::OpCtx;
use sim_core::time::SimInstant;

use super::ScfsAgent;
use crate::error::ScfsError;
use crate::types::{ChunkMap, FileHandle, FileMetadata, OpenFlags};

/// How many upcoming chunks the sequential-read prefetcher schedules on the
/// background clock once a handle shows a sequential read pattern.
const PREFETCH_CHUNKS: usize = 2;

/// State of one open file.
///
/// `open` does not materialize the file: it loads only the manifest and
/// allocates a sparse buffer. Chunks fault in lazily as `read(offset, len)`
/// touches them (`present` tracks which ones arrived); writes materialize
/// the whole file first, so a dirty handle is always fully backed.
///
/// A handle knows the chunk map of its buffer up to one byte extent: `dirty`
/// covers everything written since the newest map — `staged`, else
/// `chunk_map` — was cut, and [`ChunkMap::rebuild`] re-cuts only from the
/// chunk holding its start.
#[derive(Debug, Clone)]
pub(super) struct OpenFile {
    pub(super) path: String,
    pub(super) flags: OpenFlags,
    pub(super) metadata: FileMetadata,
    pub(super) buffer: Vec<u8>,
    /// Chunk map of the version the buffer was loaded from (`None` for fresh
    /// or truncated files); the previous-version hint for dirty-chunk upload.
    pub(super) chunk_map: Option<ChunkMap>,
    /// The map `fsync` cut of the buffer when it put the chunks on the local
    /// disk: staged, not committed, so never the upload hint.
    pub(super) staged: Option<ChunkMap>,
    /// Which chunks of `chunk_map` are materialized in `buffer`; `None` once
    /// the whole file is materialized (always for fresh/truncated files).
    pub(super) present: Option<Vec<bool>>,
    /// In-flight sequential prefetches: chunk index → the background instant
    /// the fetch completes. The data is already in the caches, but a
    /// foreground read arriving earlier must wait for that instant.
    pub(super) prefetch_ready: HashMap<usize, SimInstant>,
    /// End offset of the previous read (`None` before the first read); the
    /// sequential-pattern detector driving prefetch.
    pub(super) last_read_end: Option<u64>,
    /// The one extent covering every byte written since the buffer's newest
    /// map was cut; it ends at EOF whenever the length changed. `None` when
    /// nothing was written.
    pub(super) dirty: Option<Range<u64>>,
    pub(super) locked: bool,
}

impl OpenFile {
    /// Whether the buffer holds changes no committed version has.
    pub(super) fn is_dirty(&self) -> bool {
        self.dirty.is_some() || self.staged.is_some()
    }

    /// Widens the dirty extent to cover `written`.
    fn mark_dirty(&mut self, written: Range<u64>) {
        self.dirty = Some(match self.dirty.take() {
            Some(dirty) => dirty.start.min(written.start)..dirty.end.max(written.end),
            None => written,
        });
    }

    /// Indices of `indices` whose chunks are not yet in `buffer`.
    pub(super) fn missing_of(&self, indices: std::ops::Range<usize>) -> Vec<usize> {
        match &self.present {
            Some(present) => indices.filter(|i| !present[*i]).collect(),
            None => Vec::new(),
        }
    }

    /// Fails unless the handle was opened for the access `granted` stands
    /// for.
    fn require(&self, granted: bool) -> Result<(), ScfsError> {
        if granted {
            return Ok(());
        }
        Err(ScfsError::PermissionDenied {
            path: self.path.clone(),
        })
    }
}

impl ScfsAgent {
    /// Serves one system call on an open handle: charges the call and runs
    /// `op` with the handle checked out of the table, so `op` may use the
    /// whole agent beside it.
    pub(super) fn with_open<T>(
        &mut self,
        handle: FileHandle,
        op: impl FnOnce(&mut Self, &mut OpenFile) -> Result<T, ScfsError>,
    ) -> Result<T, ScfsError> {
        self.charge_syscall();
        let mut file = self
            .open_files
            .remove(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        let result = op(self, &mut file);
        self.open_files.insert(handle, file);
        result
    }

    /// Steps 1 and 2 of every write (Figure 4): this agent's freshest
    /// metadata of the file at `path` — created when absent and `create` is
    /// set — and, when `write` is set on a shared file in a coordinated mode,
    /// its write lock. Returns the metadata and whether the lock was taken.
    pub(super) fn resolve_file(
        &mut self,
        path: &str,
        create: bool,
        write: bool,
    ) -> Result<(FileMetadata, bool), ScfsError> {
        let metadata = match self.lookup_file(path) {
            // Read-your-writes across the metadata cache's expiry: while this
            // agent's own non-blocking commit of the object is still in
            // flight, the coordination service may serve the previous
            // version — the pending token's committed metadata is the
            // fresher truth, per object, with no wait and no global drain.
            Ok(md) => self.with_pending_commit(path, md),
            Err(ScfsError::NotFound { .. }) if create => {
                let storage_id = self.alloc_storage_id();
                let now = self.clock.now();
                let md = FileMetadata::new_file(path, self.user.clone(), storage_id, now);
                let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
                self.metadata.create(&mut ctx, md.clone())?;
                self.owned_files
                    .insert(md.storage_id.clone(), (path.to_string(), false));
                md
            }
            // Only absence means "no such file": a tuple this user may not
            // read, or one that fails to authenticate, must not look like a
            // free name.
            Err(e) => return Err(e),
        };
        let mut locked = false;
        if write
            && self.config.mode.uses_coordination()
            && !self.metadata.is_private(path, Some(&metadata))
        {
            if let Some(locks) = &self.locks {
                if let Some(landed) = self.releases_in_flight.remove(&metadata.storage_id) {
                    self.clock.advance_to(landed);
                }
                let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
                locks.try_lock(&mut ctx, &metadata.storage_id)?;
                locked = true;
            }
        }
        Ok((metadata, locked))
    }

    pub(super) fn open_file(
        &mut self,
        path: &str,
        flags: OpenFlags,
    ) -> Result<FileHandle, ScfsError> {
        let path = self.enter(path)?;
        let (mut metadata, locked) = self.resolve_file(&path, flags.create, flags.write)?;

        // Step 3: load only the manifest — it lists the chunks this version
        // is made of, and for a small file it arrived inside the tuple step 1
        // read, so a cold open costs no cloud round trip at all. The chunks
        // themselves fault in lazily, at byte-range granularity, as reads
        // touch them; a cold open of a 16 MiB file transfers a few hundred
        // bytes, not 16 MiB.
        let (buffer, chunk_map, present) = match metadata.version_hash {
            Some(root) if !flags.truncate => {
                let map = self.load_manifest(&metadata, root)?;
                let buffer = vec![0u8; map.file_len() as usize];
                let present = vec![false; map.chunk_count()];
                (buffer, Some(map), Some(present))
            }
            _ => (Vec::new(), None, None),
        };

        if flags.truncate {
            metadata.size = 0;
        }

        let handle = FileHandle(self.next_handle);
        self.next_handle += 1;
        self.open_files.insert(
            handle,
            OpenFile {
                path,
                flags,
                dirty: (flags.truncate && metadata.version_hash.is_some()).then_some(0..0),
                metadata,
                buffer,
                chunk_map,
                staged: None,
                present,
                prefetch_ready: HashMap::new(),
                last_read_end: None,
                locked,
            },
        );
        Ok(handle)
    }

    /// Faults the chunks of `file` at `missing` indices into its buffer
    /// (waiting for any in-flight prefetch of those chunks first) and
    /// updates the per-read stats: one `cloud_downloads` when the cloud was
    /// touched, one `cache_served_reads` otherwise.
    fn fault_into_buffer(
        &mut self,
        file: &mut OpenFile,
        missing: &[usize],
    ) -> Result<(), ScfsError> {
        if missing.is_empty() {
            return Ok(());
        }
        let Some(map) = file.chunk_map.clone() else {
            return Err(ScfsError::invalid(
                "read fault on a file without a chunk map",
            ));
        };
        // An in-flight prefetch already has the data on the way: wait for
        // its background completion instead of fetching twice.
        for index in missing {
            if let Some(ready) = file.prefetch_ready.remove(index) {
                self.clock.advance_to(ready);
            }
        }
        let (chunks, cloud_touched) = self.fetch_chunks(&file.metadata, &map, missing)?;
        for (&index, chunk) in missing.iter().zip(&chunks) {
            file.buffer[map.byte_range(index)].copy_from_slice(&chunk[..]);
            if let Some(present) = &mut file.present {
                present[index] = true;
            }
        }
        if let Some(present) = &file.present {
            if present.iter().all(|p| *p) {
                file.present = None;
            }
        }
        if cloud_touched {
            self.stats.cloud_downloads += 1;
        } else {
            self.stats.cache_served_reads += 1;
        }
        Ok(())
    }

    /// Materializes the whole file behind `file` (writes and fsync need the
    /// complete buffer; a dirty handle is therefore always fully backed).
    pub(super) fn materialize(&mut self, file: &mut OpenFile) -> Result<(), ScfsError> {
        let missing = match &file.chunk_map {
            Some(map) => file.missing_of(0..map.chunk_count()),
            None => Vec::new(),
        };
        self.fault_into_buffer(file, &missing)?;
        file.present = None;
        Ok(())
    }

    /// The lazy byte-range read path: maps `[offset, offset + len)` onto
    /// chunk indices, faults in only the touched, not-yet-materialized
    /// chunks, and — when the handle shows a sequential pattern — schedules
    /// the next chunks on the background clock.
    pub(super) fn read_ranged(
        &mut self,
        file: &mut OpenFile,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, ScfsError> {
        file.require(file.flags.read)?;
        let buf_len = file.buffer.len() as u64;
        let start = offset.min(buf_len) as usize;
        let end = offset.saturating_add(len as u64).min(buf_len) as usize;
        let sequential = file.last_read_end == Some(offset);
        if let Some(map) = file.chunk_map.clone() {
            let touched = map.chunks_for_range(start as u64, end - start);
            if file.present.is_some() && touched.len() < map.chunk_count() {
                self.stats.range_reads += 1;
            }
            let missing = file.missing_of(touched.clone());
            self.fault_into_buffer(file, &missing)?;
            // Sequential readers get the next chunks prefetched in the
            // background; the very first read of a handle is not yet a
            // pattern (a cold `read(0, 4 KiB)` moves exactly one chunk).
            if sequential && !touched.is_empty() && touched.end < map.chunk_count() {
                let until = (touched.end + PREFETCH_CHUNKS).min(map.chunk_count());
                self.prefetch_background(file, touched.end..until);
            }
        }
        let data = file.buffer[start..end].to_vec();
        self.charge_memory(data.len());
        file.last_read_end = Some(end as u64);
        Ok(data)
    }

    /// The write path: writes need the complete old contents around them
    /// (and close needs the whole buffer to chunk the new version), so the
    /// handle is materialized first, through the parallel engine.
    pub(super) fn write_ranged(
        &mut self,
        file: &mut OpenFile,
        offset: u64,
        data: &[u8],
    ) -> Result<usize, ScfsError> {
        file.require(file.flags.write)?;
        if data.is_empty() {
            // POSIX: a zero-length write changes nothing — it neither
            // extends the file to `offset` nor makes the handle dirty.
            return Ok(0);
        }
        // A huge-offset write errors out instead of wrapping (and then
        // panicking on the slice); the read path clamps with saturating math.
        let end = crate::types::write_end(offset, data.len())?;
        self.materialize(file)?;
        let old_len = file.buffer.len();
        if old_len < end {
            file.buffer.resize(end, 0);
        }
        file.buffer[offset as usize..end].copy_from_slice(data);
        // A write past EOF also zero-filled everything from the old EOF on.
        file.mark_dirty(offset.min(old_len as u64)..end as u64);
        file.metadata.size = file.buffer.len() as u64;
        let len = data.len();
        self.charge_memory(len);
        Ok(len)
    }

    pub(super) fn truncate_materialized(
        &mut self,
        file: &mut OpenFile,
        size: u64,
    ) -> Result<(), ScfsError> {
        file.require(file.flags.write)?;
        let len = crate::types::truncate_len(size)?;
        self.materialize(file)?;
        let old_len = file.buffer.len() as u64;
        file.buffer.resize(len, 0);
        file.mark_dirty(old_len.min(size)..size);
        file.metadata.size = size;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_agent;
    use super::*;
    use crate::backend::SingleCloudStorage;
    use crate::config::{Mode, ScfsConfig};
    use crate::fs::FileSystem;
    use cloud_store::sim_cloud::SimulatedCloud;
    use cloud_store::types::Permission;
    use coord::replication::ReplicatedCoordinator;
    use coord::service::CoordinationService;
    use sim_core::time::SimDuration;
    use std::sync::Arc;

    #[test]
    fn open_missing_file_without_create_fails() {
        let mut fs = test_agent(Mode::Blocking);
        assert!(matches!(
            fs.open("/nope", OpenFlags::read_only()),
            Err(ScfsError::NotFound { .. })
        ));
    }

    #[test]
    fn reads_and_writes_use_offsets() {
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, b"0123456789").unwrap();
        fs.write(h, 4, b"XY").unwrap();
        assert_eq!(fs.read(h, 3, 4).unwrap(), b"3XY6");
        fs.truncate(h, 5).unwrap();
        assert_eq!(fs.read(h, 0, 100).unwrap(), b"0123X");
        fs.close(h).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 5);
    }

    #[test]
    fn write_write_conflicts_are_prevented_by_locks() {
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

        alice.write_file("/shared/doc", b"v1").unwrap();
        alice
            .setfacl("/shared/doc", &"bob".into(), Permission::Write)
            .unwrap();
        let h = alice.open("/shared/doc", OpenFlags::read_write()).unwrap();
        // Bob cannot open the same file for writing while Alice holds it.
        bob.sleep(SimDuration::from_secs(1));
        assert!(matches!(
            bob.open("/shared/doc", OpenFlags::read_write()),
            Err(ScfsError::Locked { .. })
        ));
        // Reading does not require the lock.
        assert_eq!(bob.read_file("/shared/doc").unwrap(), b"v1");
        alice.close(h).unwrap();
        bob.sleep(SimDuration::from_secs(1));
        let h2 = bob.open("/shared/doc", OpenFlags::read_write()).unwrap();
        bob.close(h2).unwrap();
    }

    #[test]
    fn huge_offset_write_errors_instead_of_panicking() {
        // Regression: `offset as usize + data.len()` wrapped in release
        // builds and panicked on the slice; it must be a checked error now.
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, b"ok").unwrap();
        for offset in [
            u64::MAX,
            u64::MAX - 1,
            crate::types::MAX_FILE_LEN,
            crate::types::MAX_FILE_LEN - 1,
        ] {
            assert!(
                matches!(fs.write(h, offset, b"boom"), Err(ScfsError::Invalid { .. })),
                "write at offset {offset} must be rejected"
            );
        }
        // A write ending exactly at the bound is in principle legal (it just
        // allocates); the guard must only reject what *exceeds* the bound.
        assert!(matches!(
            fs.write(h, crate::types::MAX_FILE_LEN - 3, b"boom"),
            Err(ScfsError::Invalid { .. })
        ));
        // The handle is still usable and the data intact.
        assert_eq!(fs.read(h, 0, 2).unwrap(), b"ok");
        fs.write(h, 2, b"!").unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"ok!");
    }

    #[test]
    fn zero_length_write_is_a_no_op() {
        // Regression: an empty write used to materialize the whole file,
        // zero-extend it to `offset`, and commit a new version on close.
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mount = |seed| {
            let config = ScfsConfig::test(Mode::Blocking);
            ScfsAgent::mount(
                "alice".into(),
                config,
                storage.clone(),
                Some(coord.clone()),
                seed,
            )
            .unwrap()
        };
        let size = 3 << 20;
        mount(1).write_file("/f", &vec![3u8; size]).unwrap();
        // A second mount: nothing of the file is in its caches.
        let mut fs = mount(2);
        fs.sleep(SimDuration::from_secs(60));
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        let gets = cloud.metrics().snapshot().gets;
        assert_eq!(fs.write(h, 5, &[]).unwrap(), 0);
        assert_eq!(fs.write(h, 10 << 20, &[]).unwrap(), 0);
        assert_eq!(cloud.metrics().snapshot().gets, gets, "no chunk faulted in");
        assert_eq!(fs.handle_size(h).unwrap(), size as u64);
        fs.close(h).unwrap();
        assert_eq!(fs.stats().cloud_uploads, 0, "the handle stayed clean");
        let md = fs.stat("/f").unwrap();
        assert_eq!((md.size, md.version_count), (size as u64, 1));
        // The permission check still comes first.
        let h = fs.open("/f", OpenFlags::read_only()).unwrap();
        assert!(matches!(
            fs.write(h, 0, &[]),
            Err(ScfsError::PermissionDenied { .. })
        ));
        fs.close(h).unwrap();
    }

    #[test]
    fn huge_truncate_errors_instead_of_wrapping() {
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, b"data").unwrap();
        assert!(matches!(
            fs.truncate(h, crate::types::MAX_FILE_LEN + 1),
            Err(ScfsError::Invalid { .. })
        ));
        assert!(matches!(
            fs.truncate(h, u64::MAX),
            Err(ScfsError::Invalid { .. })
        ));
        fs.truncate(h, 2).unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"da");
    }

    #[test]
    fn handle_size_tracks_the_open_buffer() {
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        assert_eq!(fs.handle_size(h).unwrap(), 0);
        fs.write(h, 0, &vec![0u8; 4096]).unwrap();
        assert_eq!(fs.handle_size(h).unwrap(), 4096);
        fs.truncate(h, 100).unwrap();
        assert_eq!(fs.handle_size(h).unwrap(), 100);
        fs.close(h).unwrap();
        // A clean, lazily opened handle reports the full size without
        // materializing anything.
        let h2 = fs.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(fs.handle_size(h2).unwrap(), 100);
        assert!(matches!(
            fs.handle_size(FileHandle(999)),
            Err(ScfsError::BadHandle { .. })
        ));
        fs.close(h2).unwrap();
    }

    #[test]
    fn bad_handles_are_rejected() {
        let mut fs = test_agent(Mode::Blocking);
        assert!(matches!(
            fs.read(FileHandle(99), 0, 1),
            Err(ScfsError::BadHandle { .. })
        ));
        assert!(matches!(
            fs.close(FileHandle(99)),
            Err(ScfsError::BadHandle { .. })
        ));
    }
}
