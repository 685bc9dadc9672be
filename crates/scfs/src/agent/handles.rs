//! The open-file table: `open`, and the byte-range read, write and truncate
//! paths over a handle's chunks and, once it is written, its flat buffer.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use cloud_store::store::OpCtx;
use scfs_crypto::{ContentHash, Sha256};
use sim_core::time::SimInstant;

use super::versions::VersionRecord;
use super::ScfsAgent;
use crate::error::ScfsError;
use crate::types::{ChunkMap, ChunkSource, FileHandle, FileMetadata, OpenFlags};

/// How many upcoming chunks the sequential-read prefetcher schedules on the
/// background clock once a handle shows a sequential read pattern.
const PREFETCH_CHUNKS: usize = 2;

/// What an open handle holds of one chunk of the map it loaded.
#[derive(Debug, Clone)]
pub(super) enum Chunk {
    /// Not needed yet: the bytes sit at the offset, under the hash, that
    /// the map gives them, and the cloud stores them.
    Hole,
    /// Faulted in by a read: the cache's own allocation, shared, not copied.
    Clean(Arc<[u8]>),
    /// In the flat buffer: faulted or copied in, overwritten whole, or cut
    /// off by a truncate.
    Buffered,
}

/// State of one open file.
///
/// `open` does not materialize the file: it loads only the manifest, and
/// every chunk of `chunk_map` starts as a [`Chunk::Hole`]. A chunk faults in
/// the first time something needs its bytes: a read touching it, a write or
/// truncate covering only part of it (the rest of the chunk survives the
/// write), or a cut of the new version running into it
/// ([`ChunkMap::rebuild_from`]). A read keeps what it faulted in as the
/// cache's own allocation ([`Chunk::Clean`]) and copies out only the bytes
/// asked for, so a handle that is never written allocates nothing the size
/// of its file. The first write, truncate or cut gives the handle its flat
/// buffer of the file's length: the clean chunks are copied in, the holes
/// are zeros, and from then on a fault lands in the buffer. A write that
/// covers a hole whole replaces it without a fault. So a dirty handle holds
/// the chunks the new version needs and nothing more, and every hole left is
/// clean by construction: the cloud already stores it, and no spill and no
/// upload touches a hole. The agent's collector keeps that so: it leaves
/// alone every file an open handle still has holes in. A backend instance
/// that has no record of a hole's chunk refuses the commit; the commit then
/// faults the holes in and stores again ([`ScfsAgent::store_buffer`]).
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
    /// The flat buffer: `None` until the first write, truncate or cut.
    pub(super) buffer: Option<Vec<u8>>,
    /// Chunk map of the version the handle was loaded from or last committed
    /// (`None` for fresh or truncated files): the previous-version hint for
    /// dirty-chunk upload, and the map `chunks` follows.
    pub(super) chunk_map: Option<ChunkMap>,
    /// The map `fsync` cut of the buffer when it put the chunks on the local
    /// disk: staged, not committed, so never the upload hint.
    pub(super) staged: Option<ChunkMap>,
    /// What the handle holds of each chunk of `chunk_map` (empty without
    /// one).
    pub(super) chunks: Vec<Chunk>,
    /// The hash checkpoints the handle's cuts kept since its last commit,
    /// which hands them to the agent's version records.
    pub(super) checkpoints: BTreeMap<ContentHash, Vec<Sha256>>,
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
    /// Set when this agent unlinks the file: the handle still reads and
    /// writes its buffer, but `close` and `sync` commit nothing, so the name
    /// stays gone and no tuple of this agent's points at storage its
    /// collector reclaims. Another mount's handle is not flagged: its close
    /// still writes the tuple back (a pinned open hole, see
    /// `tests/chunkstore_gc.rs`).
    pub(super) unlinked: bool,
}

impl OpenFile {
    /// Whether the buffer holds changes no committed version has.
    pub(super) fn is_dirty(&self) -> bool {
        self.dirty.is_some() || self.staged.is_some()
    }

    /// The file's length as the handle sees it.
    pub(super) fn len(&self) -> usize {
        match (&self.buffer, &self.chunk_map) {
            (Some(buffer), _) => buffer.len(),
            (None, Some(map)) => map.file_len() as usize,
            (None, None) => 0,
        }
    }

    /// The flat buffer; empty until the first write, truncate or cut — and
    /// every commit cuts first.
    pub(super) fn flat(&self) -> &[u8] {
        self.buffer.as_deref().unwrap_or_default()
    }

    /// The flat buffer, allocated at the first call with room for `room`
    /// bytes, so a write growing the file that far does not move it: the
    /// clean chunks are copied in, and the holes stay zeros.
    pub(super) fn materialize(&mut self, room: usize) -> &mut Vec<u8> {
        let len = self.len();
        let (map, chunks) = (&self.chunk_map, &mut self.chunks);
        self.buffer.get_or_insert_with(|| {
            // Zeroed by the allocator, all of its capacity: a hole is never
            // written.
            let mut buffer = vec![0u8; len.max(room)];
            buffer.truncate(len);
            if let Some(map) = map {
                for (index, chunk) in chunks.iter_mut().enumerate() {
                    if let Chunk::Clean(bytes) = chunk {
                        buffer[map.byte_range(index)].copy_from_slice(bytes);
                        *chunk = Chunk::Buffered;
                    }
                }
            }
            buffer
        })
    }

    /// A copy of the bytes `range`: out of the flat buffer when the handle
    /// has one, else out of the clean chunks it overlaps.
    fn copy_out(&self, range: Range<usize>) -> Vec<u8> {
        let (Some(map), None) = (&self.chunk_map, &self.buffer) else {
            return self.flat()[range].to_vec();
        };
        let mut out = Vec::with_capacity(range.len());
        for index in map.chunks_for_range(range.start as u64, range.len()) {
            let chunk = map.byte_range(index);
            let piece =
                range.start.max(chunk.start) - chunk.start..range.end.min(chunk.end) - chunk.start;
            match &self.chunks[index] {
                Chunk::Clean(bytes) => out.extend_from_slice(&bytes[piece]),
                // The read faulted in every chunk it touches; were one not,
                // it would read as its zeros in a buffer.
                Chunk::Hole | Chunk::Buffered => out.resize(out.len() + piece.len(), 0),
            }
        }
        out
    }

    /// Widens the dirty extent to cover `written`.
    fn mark_dirty(&mut self, written: Range<u64>) {
        self.dirty = Some(match self.dirty.take() {
            Some(dirty) => dirty.start.min(written.start)..dirty.end.max(written.end),
            None => written,
        });
    }

    /// Indices of `indices` whose chunks are holes.
    pub(super) fn missing_of(&self, indices: Range<usize>) -> Vec<usize> {
        indices
            .filter(|&index| matches!(self.chunks[index], Chunk::Hole))
            .collect()
    }

    /// Indices of every hole.
    pub(super) fn holes(&self) -> Vec<usize> {
        self.missing_of(0..self.chunks.len())
    }

    /// Whether any chunk is still a hole.
    pub(super) fn has_holes(&self) -> bool {
        self.chunks.iter().any(|chunk| matches!(chunk, Chunk::Hole))
    }

    /// The holes among the chunks overlapping the bytes `range`.
    fn holes_in(&self, range: &Range<usize>) -> Vec<usize> {
        match &self.chunk_map {
            Some(map) => self.missing_of(map.chunks_for_range(range.start as u64, range.len())),
            None => Vec::new(),
        }
    }

    /// Marks the chunks at `indices` as in the buffer.
    fn fill(&mut self, indices: &[usize]) {
        for &index in indices {
            self.chunks[index] = Chunk::Buffered;
        }
    }

    /// Whether the bytes `range` are exactly a hole.
    pub(super) fn is_hole(&self, range: &Range<usize>) -> bool {
        let Some(map) = &self.chunk_map else {
            return false;
        };
        match self.holes_in(&(range.start..range.start + 1))[..] {
            [index] => map.byte_range(index) == *range,
            _ => false,
        }
    }

    /// Where the run of buffer bytes that are no hole, starting at `pos`,
    /// ends.
    fn present_until(&self, pos: usize) -> usize {
        let len = self.len();
        let holes = self.holes_in(&(pos..len));
        match (holes.first(), &self.chunk_map) {
            (Some(&hole), Some(map)) => map.byte_range(hole).start.max(pos),
            _ => len,
        }
    }

    /// Makes `map` — just committed from this buffer — the map the handle
    /// loaded. No cut ever reads a hole, so each hole is a chunk of `map`
    /// at its old extent, under its old hash: the holes, and the prefetches
    /// still in flight for them, move to their indices in `map`.
    pub(super) fn rebase(&mut self, map: ChunkMap) {
        let mut chunks = Vec::with_capacity(map.chunk_count());
        let mut ready = HashMap::new();
        for index in 0..map.chunk_count() {
            let range = map.byte_range(index);
            let hole = self.is_hole(&range);
            if let Some(old) = self.chunk_map.as_ref().filter(|_| hole) {
                let old_index = old.chunks_for_range(range.start as u64, 1).start;
                if let Some(&at) = self.prefetch_ready.get(&old_index) {
                    ready.insert(index, at);
                }
            }
            chunks.push(if hole { Chunk::Hole } else { Chunk::Buffered });
        }
        self.chunk_map = Some(map);
        self.prefetch_ready = ready;
        self.chunks = chunks;
    }

    /// Whether the handle's loaded or staged map names the chunk `hash`.
    pub(super) fn names(&self, hash: &ContentHash) -> bool {
        let maps = [&self.chunk_map, &self.staged];
        maps.into_iter()
            .flatten()
            .any(|map| map.chunks().contains(hash))
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

/// An open handle's flat buffer as the [`ChunkSource`] a commit cuts: a
/// hole faults in the first time the cut touches it. It offers the
/// checkpoints the handle and the version records keep, and the chunks the
/// memory tier holds, read without an access.
pub(super) struct Faulting<'a> {
    pub(super) agent: &'a mut ScfsAgent,
    pub(super) file: &'a mut OpenFile,
}

impl ChunkSource for Faulting<'_> {
    type Error = ScfsError;

    fn bytes(&self) -> &[u8] {
        self.file.flat()
    }

    fn present_until(&self, pos: usize) -> usize {
        self.file.present_until(pos)
    }

    fn fault(&mut self, range: Range<usize>) -> Result<(), ScfsError> {
        let holes = self.file.holes_in(&range);
        self.agent.fault_in(self.file, &holes)
    }

    fn checkpoints(&self, hash: &ContentHash) -> &[Sha256] {
        let kept = self.file.checkpoints.get(hash);
        kept.map_or_else(|| self.agent.versions.checkpoints(hash), Vec::as_slice)
    }

    fn keep_checkpoints(&mut self, hash: ContentHash, checkpoints: Vec<Sha256>) {
        self.file.checkpoints.insert(hash, checkpoints);
    }

    fn chunk_bytes(&self, hash: &ContentHash) -> Option<&[u8]> {
        let key = ScfsAgent::chunk_cache_key(hash);
        self.agent.cache.memory().peek(&key).map(|bytes| &bytes[..])
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
                let md = self.metadata.write(&mut ctx, md, |_| {})?;
                self.owned_files.insert(md.storage_id.clone(), false);
                md
            }
            // Only absence means "no such file": a tuple this user may not
            // read, or one that fails to authenticate, must not look like a
            // free name.
            Err(e) => return Err(e),
        };
        let locked = write && self.metadata.write_open_locks(&metadata);
        if locked {
            if let Some(landed) = self.releases_in_flight.remove(&metadata.storage_id) {
                self.clock.advance_to(landed);
            }
            let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
            self.metadata.lock(&mut ctx, &metadata)?;
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
        let (chunk_map, chunks) = match metadata.version_hash {
            Some(root) if !flags.truncate => {
                let map = self.load_manifest(&metadata, root)?;
                let (id, count) = (&metadata.storage_id, metadata.version_count);
                if self.versions.is_behind(id, count, &root) {
                    self.move_record(id, Some(VersionRecord::new(count, root, &map)));
                }
                let chunks = vec![Chunk::Hole; map.chunk_count()];
                (Some(map), chunks)
            }
            _ => (None, Vec::new()),
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
                buffer: None,
                chunk_map,
                staged: None,
                chunks,
                checkpoints: BTreeMap::new(),
                prefetch_ready: HashMap::new(),
                last_read_end: None,
                locked,
                unlinked: false,
            },
        );
        Ok(handle)
    }

    /// Faults the chunks of `file` at `missing` indices in (waiting for any
    /// in-flight prefetch of those chunks first) — into its flat buffer when
    /// it has one, else kept as the cache's own allocations — and updates
    /// the per-read stats: one `cloud_downloads` when the cloud was touched,
    /// one `cache_served_reads` otherwise.
    pub(super) fn fault_in(
        &mut self,
        file: &mut OpenFile,
        missing: &[usize],
    ) -> Result<(), ScfsError> {
        if missing.is_empty() {
            return Ok(());
        }
        let Some(map) = file.chunk_map.clone() else {
            return Err(ScfsError::invalid(
                "chunk fault on a file without a chunk map",
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
        for (&index, chunk) in missing.iter().zip(chunks) {
            file.chunks[index] = match &mut file.buffer {
                Some(buffer) => {
                    buffer[map.byte_range(index)].copy_from_slice(&chunk);
                    Chunk::Buffered
                }
                None => Chunk::Clean(chunk),
            };
        }
        if cloud_touched {
            self.stats.cloud_downloads += 1;
        } else {
            self.stats.cache_served_reads += 1;
        }
        Ok(())
    }

    /// Gives `file` its flat buffer, with room up to `range.end`, and
    /// readies it for the bytes `range` to be replaced: a hole the range
    /// covers in part faults in, because the rest of its chunk stays; a hole
    /// it covers whole is gone without a fault.
    fn fault_around(&mut self, file: &mut OpenFile, range: Range<usize>) -> Result<(), ScfsError> {
        file.materialize(range.end);
        let Some(map) = &file.chunk_map else {
            return Ok(());
        };
        let (covered, partial): (Vec<usize>, Vec<usize>) =
            file.holes_in(&range).into_iter().partition(|&index| {
                let chunk = map.byte_range(index);
                range.start <= chunk.start && chunk.end <= range.end
            });
        file.fill(&covered);
        self.fault_in(file, &partial)
    }

    /// The lazy byte-range read path: maps `[offset, offset + len)` onto
    /// chunk indices, faults in only the touched holes, copies out only the
    /// bytes asked for, and — when the handle shows a sequential pattern —
    /// schedules the next chunks on the background clock.
    pub(super) fn read_ranged(
        &mut self,
        file: &mut OpenFile,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, ScfsError> {
        file.require(file.flags.read)?;
        let file_len = file.len() as u64;
        let start = offset.min(file_len) as usize;
        let end = offset.saturating_add(len as u64).min(file_len) as usize;
        let sequential = file.last_read_end == Some(offset);
        if let Some(map) = file.chunk_map.clone() {
            let touched = map.chunks_for_range(start as u64, end - start);
            if file.has_holes() && touched.len() < map.chunk_count() {
                self.stats.range_reads += 1;
            }
            let missing = file.missing_of(touched.clone());
            self.fault_in(file, &missing)?;
            // Sequential readers get the next chunks prefetched in the
            // background; the very first read of a handle is not yet a
            // pattern (a cold `read(0, 4 KiB)` moves exactly one chunk).
            if sequential && !touched.is_empty() && touched.end < map.chunk_count() {
                let until = (touched.end + PREFETCH_CHUNKS).min(map.chunk_count());
                self.prefetch_background(file, touched.end..until);
            }
        }
        let data = file.copy_out(start..end);
        self.charge_memory(data.len());
        file.last_read_end = Some(end as u64);
        Ok(data)
    }

    /// The write path: only a hole the write covers in part faults in
    /// first; whatever else the new version needs, its cut faults in at
    /// commit.
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
        let old_len = file.len();
        self.fault_around(file, offset as usize..end)?;
        let buffer = file.materialize(end);
        if old_len < end {
            buffer.resize(end, 0);
        }
        buffer[offset as usize..end].copy_from_slice(data);
        // A write past EOF also zero-filled everything from the old EOF on.
        file.mark_dirty(offset.min(old_len as u64)..end as u64);
        file.metadata.size = file.len() as u64;
        let len = data.len();
        self.charge_memory(len);
        Ok(len)
    }

    /// The truncate path: a shrink faults in the hole the new EOF falls
    /// into, and the holes past it are gone.
    pub(super) fn truncate_handle(
        &mut self,
        file: &mut OpenFile,
        size: u64,
    ) -> Result<(), ScfsError> {
        file.require(file.flags.write)?;
        let len = crate::types::truncate_len(size)?;
        let old_len = file.len();
        self.fault_around(file, len.min(old_len)..old_len)?;
        file.materialize(len).resize(len, 0);
        file.mark_dirty((old_len as u64).min(size)..size);
        file.metadata.size = size;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_agent;
    use super::*;
    use crate::backend::SingleCloudStorage;
    use crate::cache::TieredCache;
    use crate::config::{Mode, ScfsConfig};
    use crate::fs::FileSystem;
    use crate::types::CutRule;
    use cloud_store::sim_cloud::SimulatedCloud;
    use cloud_store::types::Permission;
    use coord::replication::ReplicatedCoordinator;
    use coord::service::CoordinationService;
    use sim_core::rng::DetRng;
    use sim_core::time::SimDuration;
    use sim_core::units::Bytes;

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
    fn private_files_and_non_sharing_mounts_take_no_lock() {
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        for (mode, private_name_spaces) in [(Mode::Blocking, true), (Mode::NonSharing, false)] {
            let cloud = Arc::new(SimulatedCloud::test("s3"));
            let storage = Arc::new(SingleCloudStorage::new(cloud));
            let config = ScfsConfig {
                private_name_spaces,
                ..ScfsConfig::test(mode)
            };
            let mut fs =
                ScfsAgent::mount("alice".into(), config, storage, Some(coord.clone()), 1).unwrap();
            fs.write_file("/docs/notes", b"mine").unwrap();
            let h = fs.open("/docs/notes", OpenFlags::read_write()).unwrap();
            assert!(!fs.open_files[&h].locked, "{mode:?}");
            fs.write(h, 0, b"ours").unwrap();
            fs.close(h).unwrap();
        }
        assert_eq!(coord.access_count(), 0, "no coordination call at all");
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
    fn a_first_append_allocates_the_buffer_once() {
        let mut fs = test_agent(Mode::Blocking);
        let file = DetRng::new(5).bytes(3000);
        fs.write_file("/f", &file).unwrap();
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        fs.write(h, 3000, &[7u8; 100]).unwrap();
        // Sized for the write's end at the first allocation: a buffer of the
        // old length regrown by the append would hold twice that.
        let buffer = fs.open_files[&h].buffer.as_ref().unwrap();
        assert_eq!((buffer.len(), buffer.capacity()), (3100, 3100));
        fs.close(h).unwrap();
        let mut expected = file;
        expected.extend_from_slice(&[7u8; 100]);
        assert_eq!(fs.read_file("/f").unwrap(), expected);
    }

    /// A mount factory over one cloud and one coordination service, each
    /// mount of `config`.
    fn deployment(config: ScfsConfig) -> impl Fn(u64) -> ScfsAgent {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        move |seed| {
            let (storage, coord) = (storage.clone(), Some(coord.clone()));
            ScfsAgent::mount("alice".into(), config.clone(), storage, coord, seed).unwrap()
        }
    }

    /// Blocking mounts cutting fixed 1000-byte chunks.
    fn fixed_1000() -> ScfsConfig {
        ScfsConfig {
            chunking: CutRule::Fixed(1000),
            ..ScfsConfig::test(Mode::Blocking)
        }
    }

    /// Asserts that `file` is `model` long and holds `model`'s bytes
    /// everywhere but in its holes.
    fn assert_holds(file: &OpenFile, model: &[u8]) {
        assert_eq!(file.len(), model.len());
        let mut expected = model.to_vec();
        if let Some(map) = &file.chunk_map {
            for index in file.holes() {
                let range = map.byte_range(index);
                let end = range.end.min(expected.len());
                expected[range.start.min(end)..end].fill(0);
            }
        }
        assert!(file.copy_out(0..model.len()) == expected);
    }

    #[test]
    fn a_read_only_handle_shares_the_caches_bytes() {
        let mount = deployment(fixed_1000());
        let data = DetRng::new(1).bytes(4000);
        mount(1).write_file("/f", &data).unwrap();
        // A fresh mount: nothing of the file is in its caches.
        let mut fs = mount(2);
        fs.sleep(SimDuration::from_secs(60));
        let h = fs.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(h, 2100, 10).unwrap(), &data[2100..2110]);
        let file = &fs.open_files[&h];
        assert!(file.buffer.is_none(), "a read allocates no flat buffer");
        let Some(map) = &file.chunk_map else {
            panic!("a stored version has a chunk map");
        };
        let key = ScfsAgent::chunk_cache_key(&map.chunks()[2]);
        let cached = fs.cache.memory().peek(&key);
        match (&file.chunks[2], cached) {
            (Chunk::Clean(held), Some(cached)) => assert!(Arc::ptr_eq(held, cached)),
            (held, cached) => panic!("chunk 2 is {held:?}, the cache holds {cached:?}"),
        }
        for index in [0, 1, 3] {
            assert!(matches!(file.chunks[index], Chunk::Hole), "chunk {index}");
        }
        assert_eq!(fs.handle_size(h).unwrap(), 4000);
        fs.close(h).unwrap();
    }

    /// One cold handle read clean, then written, read, truncated and
    /// closed: after every step it holds the model's bytes, and while it
    /// has holes the collector spares the version it opened.
    #[test]
    fn a_handle_turns_dirty_after_clean_reads() {
        let mut config = fixed_1000();
        config.gc.written_bytes_threshold = Bytes::new(1);
        config.gc.versions_to_keep = 1;
        let mount = deployment(config);
        let mut model = DetRng::new(2).bytes(4000);
        let mut fs = mount(1);
        fs.write_file("/f", &model).unwrap();
        // The owner's collector is the one that could reclaim the opened
        // version; dropping its caches makes the handle cold.
        fs.cache = TieredCache::new(&fs.config.cache, 1);
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();

        assert_eq!(fs.read(h, 1200, 300).unwrap(), &model[1200..1500]);
        let file = &fs.open_files[&h];
        assert!(file.buffer.is_none());
        assert!(matches!(file.chunks[1], Chunk::Clean(_)));
        assert_eq!(file.holes(), [0, 2, 3]);
        assert_holds(file, &model);
        // Two newer versions and a collection after each: none reclaimed.
        for seed in 3..5 {
            fs.write_file("/f", &DetRng::new(seed).bytes(4000)).unwrap();
        }
        assert!(fs.stats().gc_runs >= 2);
        assert_eq!(fs.stats().gc_reclaimed_versions, 0);

        fs.write(h, 2500, b"edit").unwrap();
        model[2500..2504].copy_from_slice(b"edit");
        let file = &fs.open_files[&h];
        assert!(file.buffer.is_some(), "the first write allocates it");
        assert_eq!(file.holes(), [0, 3]);
        assert_holds(file, &model);

        assert_eq!(fs.read(h, 1100, 1500).unwrap(), &model[1100..2600]);
        assert_holds(&fs.open_files[&h], &model);

        fs.truncate(h, 3300).unwrap();
        model.truncate(3300);
        assert_eq!(fs.open_files[&h].holes(), [0]);
        assert_holds(&fs.open_files[&h], &model);
        assert_eq!(fs.handle_size(h).unwrap(), 3300);

        fs.close(h).unwrap();
        let mut fresh = mount(2);
        fresh.sleep(SimDuration::from_secs(600));
        assert_eq!(fresh.read_file("/f").unwrap(), model);
    }
}
