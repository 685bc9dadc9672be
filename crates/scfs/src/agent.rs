//! The SCFS Agent: the client-side implementation of the file system
//! (paper §2.5), combining the storage, metadata and locking services with
//! the two cache levels, the three operation modes, private name spaces and
//! the background garbage collector.
//!
//! The agent says each thing once: one commit (`commit`, which `close`,
//! `sync` and `copy_file` all run), one chunk-fetch loop (`fetch_plan`,
//! behind read faults and the prefetcher alike) and one way onto a
//! background lane (`on_lane`). The three modes differ only in *when*
//! `close` returns (paper §3.1), which is one `if` in `run_commit`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::store::OpCtx;
use cloud_store::types::{AccountId, Acl, Permission};
use coord::lock::LockManager;
use coord::service::{CoordinationService, SessionId};
use scfs_crypto::ContentHash;
use sim_core::background::{BackgroundScheduler, Pending};
use sim_core::latency::LatencyProfile;
use sim_core::rng::DetRng;
use sim_core::schedule::ControllerSlot;
use sim_core::time::{Clock, SimDuration, SimInstant};
use sim_core::units::Bytes;

use crate::anchor::anchored_fetch;
use crate::backend::FileStorage;
use crate::cache::{TieredCache, TieredStats, WriteMode};
use crate::chunkstore::JournalOpts;
use crate::config::ScfsConfig;
use crate::durability::DurabilityLevel;
use crate::error::ScfsError;
use crate::fs::FileSystem;
use crate::invariant::InvariantViolation;
use crate::metadata_service::MetadataService;
use crate::transfer::{execute_plan, ChunkJob, TransferOptions, TransferPlan};
use crate::types::{
    normalize_path, ChunkMap, FileHandle, FileMetadata, FileType, OpenFlags, INLINE_MANIFEST_MAX,
};

/// Counters describing the agent's activity, used by the experiment
/// harnesses to explain latency results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Number of file-system calls served.
    pub syscalls: u64,
    /// Version commits to the cloud backend (foreground + background): one
    /// per close of a dirty file, regardless of how many chunks moved.
    pub cloud_uploads: u64,
    /// Version fetches that had to touch the cloud backend (at least one
    /// chunk or manifest was not cached locally).
    pub cloud_downloads: u64,
    /// Individual chunks uploaded to the cloud backend.
    pub chunk_uploads: u64,
    /// Individual chunks downloaded from the cloud backend.
    pub chunk_downloads: u64,
    /// Payload bytes handed to the cloud backend (dirty chunks + manifests).
    /// Logical bytes: the CoC backend's replication/erasure-coding overhead
    /// on the wire is accounted per cloud, not here.
    pub bytes_uploaded: u64,
    /// Payload bytes fetched from the cloud backend (missing chunks).
    pub bytes_downloaded: u64,
    /// Reads served from the memory or disk cache without touching the cloud.
    pub cache_served_reads: u64,
    /// Total retries spent in the consistency-anchor read loop.
    pub anchor_retries: u64,
    /// Garbage-collection cycles executed.
    pub gc_runs: u64,
    /// File versions reclaimed by the garbage collector.
    pub gc_reclaimed_versions: u64,
    /// Failed garbage-collection deletions (old-version prunes, full
    /// removals, tombstone metadata deletes or journaled blob deletes that
    /// errored); the collector keeps going, but the failures are surfaced
    /// here instead of being silently swallowed.
    pub gc_errors: u64,
    /// Release-journal entries re-attempted after a previous failed delete —
    /// each one is a blob the pre-journal collector would have leaked.
    pub gc_retried: u64,
    /// Blobs reclaimed on a retry pass: orphans recovered by the journal.
    pub gc_orphans_reclaimed: u64,
    /// Distinct chunks skipped at upload because another file (or user) had
    /// already stored identical content in the global chunk store.
    pub dedup_hits_cross_file: u64,
    /// Parallel waves executed by the foreground transfer engine: a close
    /// that uploads 16 chunks at parallelism 4 adds 4 waves, and its
    /// foreground clock advanced by ~4 chunk-upload latencies.
    pub transfer_waves: u64,
    /// Reads served at byte-range granularity: the handle was only partially
    /// materialized and the read touched a strict subset of the file's
    /// chunks (no whole-file materialization was needed).
    pub range_reads: u64,
    /// Chunks fetched ahead of a sequential reader on the background clock.
    pub prefetched_chunks: u64,
    /// Non-blocking closes that had to wait for an earlier pending upload to
    /// complete because `max_pending_uploads` commits were already in flight
    /// (the explicit backpressure of the bounded upload queue).
    pub backpressure_stalls: u64,
}

/// The SCFS agent: one per mounted client.
pub struct ScfsAgent {
    user: AccountId,
    config: ScfsConfig,
    /// The clock this agent's code charges: the client's foreground clock,
    /// except inside [`ScfsAgent::on_lane`], where it is the lane's.
    clock: Clock,
    rng: DetRng,
    storage: Arc<dyn FileStorage>,
    metadata: MetadataService,
    locks: Option<LockManager>,
    cache: TieredCache,
    mem_latency: LatencyProfile,
    /// Ordered: `flush_all`-style sweeps and the dirty-handle scan iterate,
    /// so the container must not leak hash order into simulated behaviour.
    open_files: BTreeMap<FileHandle, OpenFile>,
    next_handle: u64,
    next_storage_id: u64,
    /// Background jobs — uploads, prefetches, GC cycles — run as scheduler
    /// jobs on per-object lanes: work on the same object serializes, work on
    /// different objects overlaps in virtual time.
    scheduler: BackgroundScheduler,
    /// In-flight background version commits, by storage id. Bounded by
    /// `config.max_pending_uploads` (close applies backpressure); each entry
    /// is the one token `setfacl`, `sync` and reopens of that object wait
    /// on — never a global drain. Its value is the metadata as committed by
    /// the job: this agent's read-your-writes source while the commit
    /// instant is still in the foreground's future (records are retired
    /// before a rename can move the path in it).
    pending_uploads: BTreeMap<String, Pending<FileMetadata>>,
    written_since_gc: u64,
    /// Files this agent has written: storage id → (path, deleted?). The GC
    /// cycle iterates this, so it is ordered for run-to-run determinism.
    owned_files: BTreeMap<String, (String, bool)>,
    stats: AgentStats,
}

impl std::fmt::Debug for ScfsAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScfsAgent")
            .field("user", &self.user)
            .field("mode", &self.config.mode)
            .field("backend", &self.storage.label())
            .finish()
    }
}

impl ScfsAgent {
    /// Mounts a new agent for `user` over the given backend and (optional)
    /// coordination service.
    ///
    /// The coordination service is required in the blocking and non-blocking
    /// modes and ignored in the non-sharing mode (paper §3.1).
    pub fn mount(
        user: AccountId,
        config: ScfsConfig,
        storage: Arc<dyn FileStorage>,
        coord: Option<Arc<dyn CoordinationService>>,
        seed: u64,
    ) -> Result<Self, ScfsError> {
        if config.mode.uses_coordination() && coord.is_none() {
            return Err(ScfsError::invalid(format!(
                "mode {:?} requires a coordination service",
                config.mode
            )));
        }
        let coord = if config.mode.uses_coordination() {
            coord
        } else {
            None
        };
        let session = SessionId::new(format!("{}-{}", user.as_str(), seed));
        let locks = coord
            .clone()
            .map(|c| LockManager::new(c, session, LockManager::DEFAULT_LEASE));
        let use_pns = config.private_name_spaces || !config.mode.uses_coordination();
        let metadata =
            MetadataService::new(coord, use_pns, user.clone(), config.metadata_cache_expiry);
        Ok(ScfsAgent {
            cache: TieredCache::new(&config.cache, seed),
            mem_latency: LatencyProfile::main_memory(),
            user,
            config,
            // scfs-lint: allow(C003, mount is the agent's clock root; every session starts at the virtual epoch by design)
            clock: Clock::new(),
            rng: DetRng::new(seed),
            storage,
            metadata,
            locks,
            open_files: BTreeMap::new(),
            next_handle: 1,
            next_storage_id: 1,
            scheduler: BackgroundScheduler::new(),
            pending_uploads: BTreeMap::new(),
            written_since_gc: 0,
            owned_files: BTreeMap::new(),
            stats: AgentStats::default(),
        })
    }

    /// The agent's activity counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// The two-level cache's counters: per-tier hits/misses/evictions,
    /// promotions and demotions.
    pub fn cache_stats(&self) -> TieredStats {
        self.cache.stats()
    }

    /// The agent's metadata service (exposes PNS and cache statistics).
    pub fn metadata_service(&self) -> &MetadataService {
        &self.metadata
    }

    /// The agent's configuration.
    pub fn config(&self) -> &ScfsConfig {
        &self.config
    }

    /// Instant at which every background job spawned so far (uploads,
    /// prefetches, GC) has completed — the coarse durability horizon of
    /// non-blocking mode. Prefer [`ScfsAgent::upload_token`] to wait for one
    /// object precisely.
    pub fn background_drain_instant(&self) -> SimInstant {
        self.scheduler.drain_instant()
    }

    /// Completion token of the in-flight background upload of `path`, if
    /// any: the durability promotion this object is still waiting for. The
    /// token's value is the level (Table 1) the data reaches at
    /// [`Pending::ready_at`] — a second mount of the same account waits on
    /// it ([`ScfsAgent::wait_for`]) instead of sleeping past a drain
    /// estimate.
    pub fn upload_token(&self, path: &str) -> Option<Pending<DurabilityLevel>> {
        let path = normalize_path(path).ok()?;
        let pending = self.pending_by_path(&path)?;
        Some(Pending::new(
            self.storage.cloud_durability(),
            pending.started_at(),
            pending.ready_at(),
        ))
    }

    /// Blocks this client until `token` completes (advances its clock to the
    /// token's ready instant; free if already past it).
    pub fn wait_for<T>(&mut self, token: &Pending<T>) {
        self.clock.advance_to(token.ready_at());
    }

    /// Installs one schedule controller into every nondeterminism point this
    /// agent drives: its background scheduler's lane dispatch and its
    /// storage backend's GC journal replay. Only the model checker
    /// (`scfs-check`) calls this; production agents keep the empty slot and
    /// the deterministic schedule.
    pub fn install_schedule_controller(&mut self, slot: ControllerSlot) {
        self.scheduler.install_schedule_controller(slot.clone());
        self.storage.install_schedule_controller(slot);
    }

    /// Appends any violated agent-side structural invariants to `out`: the
    /// cache tiers' byte accounting and the storage backend's chunkstore
    /// refcount/journal invariants. The model checker runs this after every
    /// step of a schedule; tests can assert the list stays empty.
    pub fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        self.cache.check_invariants(out);
        self.storage.check_invariants(out);
    }

    /// Number of background jobs (uploads, prefetch, GC) still in flight at
    /// this agent's current instant. Zero once the agent has slept past
    /// [`ScfsAgent::background_drain_instant`] — the "every `Pending`
    /// settled at drain" quiescence check.
    pub fn background_in_flight(&self) -> usize {
        self.scheduler.in_flight(self.clock.now())
    }

    /// Runs `job` as a background job of this agent on `lane`, starting no
    /// earlier than `start` — the one place anything is handed to the
    /// scheduler. While the job runs, `self.clock` *is* the lane's forked
    /// clock (and the scheduler is checked out, so a job cannot spawn), which
    /// makes a job ordinary agent code: the commit and the fetch the
    /// foreground runs, charged to another clock.
    fn on_lane<T>(
        &mut self,
        start: SimInstant,
        lane: &str,
        job: impl FnOnce(&mut Self) -> T,
    ) -> Pending<T> {
        let mut scheduler = std::mem::take(&mut self.scheduler);
        let token = scheduler.spawn(start, Some(lane), |lane_clock| {
            std::mem::swap(&mut self.clock, lane_clock);
            let value = job(self);
            std::mem::swap(&mut self.clock, lane_clock);
            value
        });
        self.scheduler = scheduler;
        token
    }

    /// The metadata of the object at `path`; a tombstone reads as absent.
    fn lookup(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let md = self.metadata.get(&mut ctx, path)?;
        if md.deleted {
            return Err(ScfsError::not_found(path));
        }
        Ok(md)
    }

    /// [`ScfsAgent::lookup`] of a path that must name a file.
    fn lookup_file(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        let md = self.lookup(path)?;
        if md.file_type != FileType::File {
            return Err(ScfsError::WrongType {
                path: path.to_string(),
                expected: "file",
            });
        }
        Ok(md)
    }

    /// The start of every path-taking call: charges it, normalizes the path.
    fn enter(&mut self, path: &str) -> Result<String, ScfsError> {
        self.charge_syscall();
        normalize_path(path)
    }

    fn charge_syscall(&mut self) {
        self.stats.syscalls += 1;
        let d = self.config.syscall_overhead.sample(&mut self.rng);
        self.clock.advance(d);
    }

    fn charge_memory(&mut self, bytes: usize) {
        let d = self
            .mem_latency
            .sample_op(&mut self.rng, Bytes::new(bytes as u64), Bytes::ZERO);
        self.clock.advance(d);
    }

    fn alloc_storage_id(&mut self) -> String {
        let id = format!("{}-f{}", self.user.as_str(), self.next_storage_id);
        self.next_storage_id += 1;
        id
    }

    /// Cache key of a content-addressed chunk. Chunk entries are keyed by
    /// content hash, so they are shared across versions and even files, and
    /// can never be stale.
    fn chunk_cache_key(hash: &ContentHash) -> String {
        format!("chunk:{}", scfs_crypto::to_hex(hash))
    }

    /// Cache key of an encoded chunk-map manifest, keyed by root hash.
    fn manifest_cache_key(hash: &ContentHash) -> String {
        format!("manifest:{}", scfs_crypto::to_hex(hash))
    }

    /// The engine options every transfer of this agent runs under.
    fn transfer_options(&self) -> TransferOptions {
        TransferOptions::parallel(self.config.max_parallel_transfers)
    }
}

impl FileSystem for ScfsAgent {
    fn name(&self) -> String {
        format!("SCFS-{}-{}", self.storage.label(), self.config.mode.label())
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn sleep(&mut self, duration: SimDuration) {
        self.clock.advance(duration);
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<FileHandle, ScfsError> {
        self.open_file(path, flags)
    }

    fn read(&mut self, handle: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, ScfsError> {
        self.with_open(handle, |agent, file| agent.read_ranged(file, offset, len))
    }

    fn write(&mut self, handle: FileHandle, offset: u64, data: &[u8]) -> Result<usize, ScfsError> {
        self.with_open(handle, |agent, file| agent.write_ranged(file, offset, data))
    }

    fn truncate(&mut self, handle: FileHandle, size: u64) -> Result<(), ScfsError> {
        self.with_open(handle, |agent, file| {
            agent.truncate_materialized(file, size)
        })
    }

    fn handle_size(&mut self, handle: FileHandle) -> Result<u64, ScfsError> {
        // Served from the open handle: the buffer always has the logical
        // length of the file, even while chunks are still unmaterialized.
        self.with_open(handle, |_, file| Ok(file.buffer.len() as u64))
    }

    fn fsync(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.with_open(handle, |agent, file| {
            if file.dirty {
                // Durability level 1: the data reaches the local disk, as
                // chunks. No manifest is spilled — the version is not
                // committed yet, so there is no root hash for a reader to
                // look it up under.
                let map = agent.config.chunk_map(&file.buffer);
                agent.spill_chunks(&map, &file.buffer, WriteMode::DiskOnly);
            }
            Ok(())
        })
    }

    fn sync(&mut self, handle: FileHandle) -> Result<DurabilityLevel, ScfsError> {
        self.with_open(handle, Self::sync_open)
    }

    fn close(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.close_file(handle)
    }

    fn stat(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        let path = self.enter(path)?;
        // An open, dirty file is described by its in-memory state (writes
        // and truncates keep the handle's `metadata.size` at the buffer's).
        if let Some(open) = self.open_files.values().find(|f| f.path == path && f.dirty) {
            return Ok(open.metadata.clone());
        }
        // Read-your-writes: an in-flight background commit of this object is
        // already part of this client's view (see `open`).
        let md = self.lookup(&path)?;
        Ok(self.with_pending_commit(&path, md))
    }

    fn mkdir(&mut self, path: &str) -> Result<(), ScfsError> {
        let path = self.enter(path)?;
        let now = self.clock.now();
        let md = FileMetadata::new_directory(&path, self.user.clone(), now);
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        if !self.metadata.parent_exists(&mut ctx, &path) {
            return Err(ScfsError::not_found(crate::types::parent_of(&path)));
        }
        self.metadata.create(&mut ctx, md)
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, ScfsError> {
        let path = self.enter(path)?;
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        self.metadata.list_children(&mut ctx, &path)
    }

    fn unlink(&mut self, path: &str) -> Result<(), ScfsError> {
        let path = self.enter(path)?;
        let md = self.lookup_file(&path)?;
        // Files are only marked as deleted; the garbage collector reclaims
        // the cloud objects later (paper §2.5.3). The tombstone carries this
        // agent's freshest view of the object (including a version committed
        // by a still-pending upload).
        let mut md = self.with_pending_commit(&path, md);
        md.deleted = true;
        if let Some(entry) = self.owned_files.get_mut(&md.storage_id) {
            entry.1 = true;
        }
        if self.pending_uploads.remove(&md.storage_id).is_some() {
            // An upload of this object is still in flight: commit the
            // tombstone on the object's lane, *after* that commit, so the
            // background metadata update cannot resurrect the file — and the
            // foreground never waits (unlinking a transient file right after
            // a non-blocking close is the hot path of Figure 8).
            let now = self.clock.now();
            self.metadata.update_local(md.clone(), now);
            let lane = md.storage_id.clone();
            let token = self.on_lane(now, &lane, |agent| {
                let mut ctx = OpCtx::new(&mut agent.clock, agent.user.clone());
                agent.metadata.update(&mut ctx, md)
            });
            token.into_inner()?;
        } else {
            let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
            self.metadata.update(&mut ctx, md)?;
        }
        // Cached chunks and manifests are content-addressed, not keyed by
        // path; they age out of the LRU caches once nothing reads them.
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        let from = self.enter(from)?;
        let to = normalize_path(to)?;
        // Rename moves a whole path prefix and may clobber the destination:
        // the moved metadata must carry any in-flight version commits, and a
        // pending record left behind under either tree would resolve reads
        // of the old path to the moved object — settle exactly those tokens
        // first.
        let (from_dir, to_dir) = (format!("{from}/"), format!("{to}/"));
        self.wait_pending_uploads(|_, pending| {
            let path = &pending.value().path;
            *path == from || *path == to || path.starts_with(&from_dir) || path.starts_with(&to_dir)
        });
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        self.metadata.rename(&mut ctx, &from, &to)?;
        // The GC bookkeeping moves with the prefix: a later unlink + GC of a
        // renamed file must delete the tombstone under its *current* path.
        for (path, _) in self.owned_files.values_mut() {
            if *path == from {
                *path = to.clone();
            } else if let Some(rest) = path.strip_prefix(&from_dir) {
                *path = format!("{to}/{rest}");
            }
        }
        Ok(())
    }

    fn setfacl(
        &mut self,
        path: &str,
        user: &AccountId,
        permission: Permission,
    ) -> Result<(), ScfsError> {
        let path = self.enter(path)?;
        // The grant must not be overwritten by an in-flight metadata update
        // from an earlier non-blocking close of this file — wait on *this
        // object's* completion token, not on the global drain: grants on
        // other files proceed while unrelated uploads are still in flight.
        self.wait_pending_uploads(|_, pending| pending.value().path == path);
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let metadata = self.metadata.get(&mut ctx, &path)?;
        if metadata.owner != self.user {
            return Err(ScfsError::PermissionDenied { path });
        }
        let mut acl = metadata.acl.clone();
        acl.grant(user.clone(), permission);
        // (i) update the ACLs of the cloud objects holding the file data;
        // (ii) update the metadata tuple (and its coordination-service ACL).
        if metadata.file_type == FileType::File && metadata.version_hash.is_some() {
            self.storage.set_acl(&mut ctx, &metadata.storage_id, &acl)?;
        }
        self.metadata.set_acl(&mut ctx, metadata, acl)?;
        Ok(())
    }

    fn getfacl(&mut self, path: &str) -> Result<Acl, ScfsError> {
        let path = self.enter(path)?;
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        Ok(self.metadata.get(&mut ctx, &path)?.acl)
    }

    fn copy_file(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        self.copy(from, to)
    }
}

// ---- handles: the open-file table and the byte-range read/write paths ----

/// State of one open file.
///
/// `open` does not materialize the file: it loads only the manifest and
/// allocates a sparse buffer. Chunks fault in lazily as `read(offset, len)`
/// touches them (`present` tracks which ones arrived); writes materialize
/// the whole file first, so a dirty handle is always fully backed.
#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    flags: OpenFlags,
    metadata: FileMetadata,
    buffer: Vec<u8>,
    /// Chunk map of the version the buffer was loaded from (`None` for fresh
    /// or truncated files); the previous-version hint for dirty-chunk upload.
    chunk_map: Option<ChunkMap>,
    /// Which chunks of `chunk_map` are materialized in `buffer`; `None` once
    /// the whole file is materialized (always for fresh/truncated files).
    present: Option<Vec<bool>>,
    /// In-flight sequential prefetches: chunk index → the background instant
    /// the fetch completes. The data is already in the caches, but a
    /// foreground read arriving earlier must wait for that instant.
    prefetch_ready: HashMap<usize, SimInstant>,
    /// End offset of the previous read (`None` before the first read); the
    /// sequential-pattern detector driving prefetch.
    last_read_end: Option<u64>,
    dirty: bool,
    locked: bool,
}

impl OpenFile {
    /// Indices of `indices` whose chunks are not yet in `buffer`.
    fn missing_of(&self, indices: std::ops::Range<usize>) -> Vec<usize> {
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
    fn with_open<T>(
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
    fn resolve_file(
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
                let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
                locks.try_lock(&mut ctx, &metadata.storage_id)?;
                locked = true;
            }
        }
        Ok((metadata, locked))
    }

    fn open_file(&mut self, path: &str, flags: OpenFlags) -> Result<FileHandle, ScfsError> {
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
                dirty: flags.truncate && metadata.version_hash.is_some(),
                metadata,
                buffer,
                chunk_map,
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
    fn materialize(&mut self, file: &mut OpenFile) -> Result<(), ScfsError> {
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
    fn read_ranged(
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
            let prefetch = self.config.prefetch_chunks;
            if sequential && prefetch > 0 && !touched.is_empty() && touched.end < map.chunk_count()
            {
                let until = touched.end.saturating_add(prefetch).min(map.chunk_count());
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
    fn write_ranged(
        &mut self,
        file: &mut OpenFile,
        offset: u64,
        data: &[u8],
    ) -> Result<usize, ScfsError> {
        file.require(file.flags.write)?;
        // Checked end-offset arithmetic against the maximum file size: a
        // huge-offset write must error out instead of wrapping in release
        // (and then panicking on the slice) — the read path already clamps
        // with saturating math.
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= crate::types::MAX_FILE_LEN)
            .ok_or_else(|| {
                ScfsError::invalid(format!(
                    "write of {} bytes at offset {offset} exceeds the maximum file size of {} bytes",
                    data.len(),
                    crate::types::MAX_FILE_LEN
                ))
            })? as usize;
        self.materialize(file)?;
        if file.buffer.len() < end {
            file.buffer.resize(end, 0);
        }
        file.buffer[offset as usize..end].copy_from_slice(data);
        file.dirty = true;
        file.metadata.size = file.buffer.len() as u64;
        let len = data.len();
        self.charge_memory(len);
        Ok(len)
    }

    fn truncate_materialized(&mut self, file: &mut OpenFile, size: u64) -> Result<(), ScfsError> {
        file.require(file.flags.write)?;
        // Same bound as `write_ranged`: growing a file past the maximum size
        // must error, not wrap the usize conversion below.
        if size > crate::types::MAX_FILE_LEN {
            return Err(ScfsError::invalid(format!(
                "truncate to {size} bytes exceeds the maximum file size of {} bytes",
                crate::types::MAX_FILE_LEN
            )));
        }
        self.materialize(file)?;
        file.buffer.resize(size as usize, 0);
        file.dirty = true;
        file.metadata.size = size;
        Ok(())
    }
}

// ---- commit: the one version commit and its three callers ----

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
    /// chunk transfers, and zero manifest reads when `src` carries its
    /// manifest inline.
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
    fn pending_by_path(&self, path: &str) -> Option<&Pending<FileMetadata>> {
        let now = self.clock.now();
        self.pending_uploads
            .values()
            .find(|p| p.value().path == path && p.ready_at() > now)
    }

    /// This agent's freshest view of `path`: `md`, unless an in-flight
    /// background commit of the object carries a newer version — the
    /// read-your-writes rule that bridges the metadata cache's expiry while
    /// the commit instant is still in the foreground's future.
    fn with_pending_commit(&self, path: &str, md: FileMetadata) -> FileMetadata {
        match self.pending_by_path(path) {
            Some(pending) if pending.value().version_count > md.version_count => {
                pending.value().clone()
            }
            _ => md,
        }
    }

    /// Waits for, and retires, the in-flight uploads `concerned` selects by
    /// storage id and record: a per-object wait, never a global drain.
    fn wait_pending_uploads(&mut self, concerned: impl Fn(&str, &Pending<FileMetadata>) -> bool) {
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
    /// materializes instead, under the lock it still holds).
    ///
    /// A failed commit still releases the lock: the caller has dropped the
    /// handle and can retry nothing, so holding on would lock every other
    /// writer out for a full lease over an error the caller was told about.
    fn commit(
        &mut self,
        metadata: FileMetadata,
        version: NewVersion<'_>,
        unlock: bool,
    ) -> Result<Option<FileMetadata>, ScfsError> {
        let lock_id = metadata.storage_id.clone();
        let committed = self.store_and_anchor(metadata, version);
        if unlock && !matches!(committed, Ok(None)) {
            if let Some(locks) = &self.locks {
                let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
                let released = locks.unlock(&mut ctx, &lock_id);
                // Best effort after a failure (the lease still covers a dead
                // coordinator): the commit's own error is the one to report.
                if committed.is_ok() {
                    released?;
                }
            }
        }
        committed
    }

    /// Steps w2 and w3 of the consistency-anchor write (Figure 3).
    fn store_and_anchor(
        &mut self,
        mut metadata: FileMetadata,
        version: NewVersion<'_>,
    ) -> Result<Option<FileMetadata>, ScfsError> {
        // The freshly written objects must carry the file ACL so that every
        // user the file is shared with — including its owner, when the writer
        // is a grantee — can read the new version. The backend tags exactly
        // the objects this write stores (O(dirty chunks), not O(all
        // versions × chunks)).
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
    /// `wait` (a blocking close, any `sync`): the job is awaited on the
    /// foreground clock. Otherwise the call returns now and everyone else
    /// waits on this object's token; at most `max_pending_uploads` such
    /// commits are in flight, the call stalling on the earliest one. This
    /// client's own view needs no separate update: the job's metadata update
    /// has already refreshed the local caches.
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
        if wait {
            return token.wait(&mut self.clock);
        }
        let (started_at, ready_at) = (token.started_at(), token.ready_at());
        let committed = token.into_inner()?;
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
    fn spill_chunks(&mut self, map: &ChunkMap, data: &[u8], mode: WriteMode) {
        for (index, chunk_hash) in map.chunks().iter().enumerate() {
            let key = Self::chunk_cache_key(chunk_hash);
            let chunk: Arc<[u8]> = Arc::from(&data[map.byte_range(index)]);
            self.cache
                .put(&mut self.clock, &key, chunk, Some(*chunk_hash), mode);
        }
    }

    /// Commits `file`'s buffer as the new version of its object. The buffer
    /// is chunked — the version's root hash, the one hash the anchor stores,
    /// follows from the map alone, before any cloud access — and written
    /// into both cache levels, so the data always reaches the local disk
    /// first (level 1); the manifest goes with it unless the metadata tuple
    /// will carry that inline (a cache entry nobody looks up would only
    /// displace a chunk). Then the commit runs. Returns the version's map
    /// and the committed metadata.
    fn commit_buffer(
        &mut self,
        file: &OpenFile,
        unlock: bool,
        wait: bool,
    ) -> Result<(ChunkMap, Option<FileMetadata>), ScfsError> {
        let map = self.config.chunk_map(&file.buffer);
        self.spill_chunks(&map, &file.buffer, WriteMode::Through);
        let manifest = map.encode();
        if manifest.len() > INLINE_MANIFEST_MAX {
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

    fn close_file(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.charge_syscall();
        let file = self
            .open_files
            .remove(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        if !file.dirty {
            // Nothing to synchronize; just release the lock if we held it.
            if let (true, Some(locks)) = (file.locked, &self.locks) {
                let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
                locks.unlock(&mut ctx, &file.metadata.storage_id)?;
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
    fn sync_open(&mut self, file: &mut OpenFile) -> Result<DurabilityLevel, ScfsError> {
        if file.dirty || file.metadata.version_hash.is_none() {
            self.materialize(file)?;
            // The lane orders this commit behind any in-flight upload of the
            // same object; the new token supersedes the pending record.
            self.pending_uploads.remove(&file.metadata.storage_id);
            let (map, committed) = self.commit_buffer(file, false, true)?;
            if let Some(metadata) = committed {
                file.metadata = metadata;
            }
            file.chunk_map = Some(map);
            file.present = None;
            file.dirty = false;
        } else {
            self.wait_pending_uploads(|id, _| id == file.metadata.storage_id);
        }
        Ok(self.storage.cloud_durability())
    }

    /// Manifest-only copy: the destination's new version references the
    /// source version's chunks through the global chunk store's refcounts,
    /// so zero chunks move — only a manifest and a metadata update — and
    /// every referenced chunk counts as a cross-file dedup hit
    /// ([`AgentStats::dedup_hits_cross_file`]). Falls back to the
    /// materializing open/read/write/close path (the trait default) when the
    /// source has no committed version or the backend keeps no chunk
    /// registry.
    fn copy(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
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

// ---- fetch: manifests and the one chunk-fetch loop ----

/// Chunk payloads in request order, plus whether the cloud was touched.
type FetchedChunks = (Vec<Arc<[u8]>>, bool);

/// What one executed fetch plan moved: `(job, bytes, anchor retries)` per
/// job of the plan, and the number of waves.
type FetchedPlan = (Vec<(ChunkJob, Arc<[u8]>, usize)>, u64);

impl ScfsAgent {
    /// Loads the chunk-map manifest of the version of `metadata`'s object
    /// whose root hash is `root` — the one place that chooses where a
    /// manifest comes from: the metadata tuple itself when it carries the
    /// manifest inline (no transfer at all), else the memory cache, the disk
    /// cache, and last the cloud via the consistency-anchor retry loop. This
    /// is everything `open` transfers — the chunks themselves fault in
    /// lazily as reads touch them.
    fn load_manifest(
        &mut self,
        metadata: &FileMetadata,
        root: ContentHash,
    ) -> Result<ChunkMap, ScfsError> {
        if let Some(map) = metadata.inline_manifest()? {
            return Ok(map);
        }
        let manifest_key = Self::manifest_cache_key(&root);
        // The tiered cache handles the memory → disk fallthrough and
        // promotes a disk hit into memory by moving the Arc.
        if let Some(bytes) = self.cache.get(&mut self.clock, &manifest_key, Some(&root)) {
            return ChunkMap::decode(&bytes).map_err(|e| {
                ScfsError::invalid(format!("cached manifest corrupted: {}", e.reason))
            });
        }
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let fetched = anchored_fetch(&mut ctx, |ctx| {
            self.storage
                .read_manifest_bytes(ctx, &metadata.storage_id, &root)
        })?;
        self.stats.cloud_downloads += 1;
        self.stats.anchor_retries += fetched.retries as u64;
        let map =
            ChunkMap::decode(&fetched.data).map_err(|_| StorageError::IntegrityViolation {
                key: metadata.storage_id.clone(),
            })?;
        self.cache.put(
            &mut self.clock,
            &manifest_key,
            fetched.data.into(),
            Some(root),
            WriteMode::CacheOnly,
        );
        Ok(map)
    }

    /// Plans a fetch of the chunks of `map` at `indices` absent from both
    /// cache levels (probes are free and pin the planned cache hits in the
    /// policy).
    fn plan_fetch(&mut self, map: &ChunkMap, indices: &[usize]) -> TransferPlan {
        let cache = &mut self.cache;
        TransferPlan::fetch(map, indices.iter().copied(), |hash| {
            cache.probe(&Self::chunk_cache_key(hash), Some(hash))
        })
    }

    /// Fails unless a chunk of `len` bytes can be chunk `index` of `map`
    /// (what keeps a hostile manifest from panicking the buffer copy).
    fn check_chunk_len(
        file: &FileMetadata,
        map: &ChunkMap,
        index: usize,
        len: usize,
    ) -> Result<(), ScfsError> {
        if len == map.chunk_len(index) {
            return Ok(());
        }
        Err(ScfsError::invalid(format!(
            "chunk {index} of {} has {len} bytes, expected {}",
            file.path,
            map.chunk_len(index)
        )))
    }

    /// The one chunk-fetch loop: moves the chunks of `plan` — chunks of
    /// `file`'s object, laid out by `map` — from the cloud into the cache,
    /// on whichever clock `self.clock` currently is. The GETs run through
    /// the transfer engine in parallel waves, each forked request inside its
    /// own consistency-anchor retry loop; every chunk is checked against the
    /// map's length and inserted memory-first (a clean chunk the cloud still
    /// holds reaches disk later by demotion, if it stays warm enough to
    /// matter).
    fn fetch_plan(
        &mut self,
        file: &FileMetadata,
        map: &ChunkMap,
        plan: &TransferPlan,
    ) -> Result<FetchedPlan, ScfsError> {
        let storage = self.storage.as_ref();
        let opts = self.transfer_options();
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let (chunks, report) = execute_plan(&mut ctx, &opts, plan, |job, fork_ctx| {
            let fetched = anchored_fetch(fork_ctx, |ctx| {
                storage.read_chunk(ctx, &file.storage_id, &job.hash)
            })?;
            Self::check_chunk_len(file, map, job.index, fetched.data.len())?;
            Ok(fetched)
        })?;
        let mut out = Vec::with_capacity(chunks.len());
        for (job, chunk) in plan.jobs().iter().zip(chunks) {
            self.stats.chunk_downloads += 1;
            self.stats.bytes_downloaded += chunk.data.len() as u64;
            let data: Arc<[u8]> = chunk.data.into();
            self.cache.put(
                &mut self.clock,
                &Self::chunk_cache_key(&job.hash),
                data.clone(),
                Some(job.hash),
                WriteMode::CacheOnly,
            );
            out.push((*job, data, chunk.retries));
        }
        Ok((out, report.waves))
    }

    /// Brings the chunks of `map` at `wanted` indices into this agent's
    /// caches and returns their bytes in `wanted` order: memory cache, then
    /// disk cache (promoting), then the cloud. Returns the chunks and
    /// whether the cloud was touched.
    fn fetch_chunks(
        &mut self,
        file: &FileMetadata,
        map: &ChunkMap,
        wanted: &[usize],
    ) -> Result<FetchedChunks, ScfsError> {
        let plan = self.plan_fetch(map, wanted);
        let cloud_touched = !plan.is_empty();
        let mut fetched: HashMap<ContentHash, Arc<[u8]>> = HashMap::new();
        if cloud_touched {
            let (chunks, waves) = self.fetch_plan(file, map, &plan)?;
            self.stats.transfer_waves += waves;
            for (job, data, retries) in chunks {
                self.stats.anchor_retries += retries as u64;
                fetched.insert(job.hash, data);
            }
        }

        // Assemble: cloud-fetched bytes directly, the rest from the caches.
        let mut out = Vec::with_capacity(wanted.len());
        for &index in wanted {
            let hash = map.chunks()[index];
            if let Some(bytes) = fetched.get(&hash) {
                out.push(bytes.clone());
                continue;
            }
            // The tiered get promotes a disk hit into memory by moving the
            // Arc (one insert charge, no payload copy).
            let key = Self::chunk_cache_key(&hash);
            if let Some(chunk) = self.cache.get(&mut self.clock, &key, Some(&hash)) {
                Self::check_chunk_len(file, map, index, chunk.len())?;
                out.push(chunk);
                continue;
            }
            // A planned cache hit was evicted by this very call's cloud puts
            // (tiny caches): fetch it after all rather than failing.
            let evicted = TransferPlan::fetch(map, [index], |_| false);
            for (_, data, retries) in self.fetch_plan(file, map, &evicted)?.0 {
                self.stats.anchor_retries += retries as u64;
                out.push(data);
            }
        }
        Ok((out, cloud_touched))
    }

    /// Schedules a background fetch of the chunks of `file` at `indices`
    /// that are neither materialized, cached, nor already in flight: the
    /// fetch loop as a job on the object's lane. It never blocks the caller,
    /// serializes behind an in-flight upload of the same object
    /// (read-after-write order) and overlaps with everything else; a later
    /// foreground read of these chunks waits only for the remainder of the
    /// background transfer. Prefetch is best-effort: an error makes the job a
    /// no-op, the foreground fault path will retry and surface it.
    fn prefetch_background(&mut self, file: &mut OpenFile, indices: std::ops::Range<usize>) {
        let Some(map) = file.chunk_map.clone() else {
            return;
        };
        let candidates: Vec<usize> = file
            .missing_of(indices)
            .into_iter()
            .filter(|i| !file.prefetch_ready.contains_key(i))
            .collect();
        let plan = self.plan_fetch(&map, &candidates);
        if plan.is_empty() {
            return;
        }
        let token = self.on_lane(self.clock.now(), &file.metadata.storage_id, |agent| {
            agent.fetch_plan(&file.metadata, &map, &plan)
        });
        let ready_at = token.ready_at();
        let Ok((chunks, _)) = token.into_inner() else {
            return;
        };
        self.stats.prefetched_chunks += chunks.len() as u64;
        // Every planned chunk (and any duplicate of it among the candidates)
        // becomes available at the background completion instant.
        for index in candidates {
            if plan.jobs().iter().any(|j| j.hash == map.chunks()[index]) {
                file.prefetch_ready.insert(index, ready_at);
            }
        }
    }
}

// ---- gc: the background garbage collector ----

/// Scheduler lane of the garbage collector: GC cycles serialize with one
/// another but overlap with uploads and prefetches. Distinct from every
/// object lane (storage ids always contain `-f`).
const GC_LANE: &str = "gc";

impl ScfsAgent {
    /// Runs the garbage collector if the written-bytes threshold was crossed
    /// (paper §2.5.3). The whole cycle runs as one job on the scheduler's GC
    /// lane: cycles serialize with one another but overlap with uploads and
    /// prefetches, and never charge the foreground clock.
    fn maybe_run_gc(&mut self) {
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
    use crate::backend::SingleCloudStorage;
    use crate::config::Mode;
    use cloud_store::sim_cloud::SimulatedCloud;
    use coord::replication::ReplicatedCoordinator;

    fn test_agent(mode: Mode) -> ScfsAgent {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        ScfsAgent::mount(
            "alice".into(),
            ScfsConfig::test(mode),
            storage,
            Some(coord),
            7,
        )
        .unwrap()
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = test_agent(Mode::Blocking);
        fs.write_file("/docs/report.txt", b"hello SCFS").unwrap();
        assert_eq!(fs.read_file("/docs/report.txt").unwrap(), b"hello SCFS");
        let md = fs.stat("/docs/report.txt").unwrap();
        assert_eq!(md.size, 10);
        assert_eq!(md.version_count, 1);
        assert!(md.version_hash.is_some());
    }

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
    fn non_sharing_mode_needs_no_coordination_service() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let mut fs = ScfsAgent::mount(
            "alice".into(),
            ScfsConfig::test(Mode::NonSharing),
            storage,
            None,
            3,
        )
        .unwrap();
        fs.write_file("/private/notes", b"only mine").unwrap();
        assert_eq!(fs.read_file("/private/notes").unwrap(), b"only mine");
        assert_eq!(fs.name(), "SCFS-AWS-NS");
    }

    #[test]
    fn blocking_mode_requires_coordination_service() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        assert!(ScfsAgent::mount(
            "alice".into(),
            ScfsConfig::test(Mode::Blocking),
            storage,
            None,
            3,
        )
        .is_err());
    }

    #[test]
    fn directories_mkdir_readdir_unlink() {
        let mut fs = test_agent(Mode::Blocking);
        fs.mkdir("/projects").unwrap();
        fs.write_file("/projects/a.txt", b"a").unwrap();
        fs.write_file("/projects/b.txt", b"b").unwrap();
        let listing = fs.readdir("/projects").unwrap();
        assert_eq!(listing.len(), 2);
        fs.unlink("/projects/a.txt").unwrap();
        assert!(matches!(
            fs.stat("/projects/a.txt"),
            Err(ScfsError::NotFound { .. })
        ));
        assert_eq!(
            fs.readdir("/projects").unwrap().len(),
            2,
            "tombstone remains until GC"
        );
        // mkdir under a missing parent fails.
        assert!(fs.mkdir("/does/not/exist").is_err());
    }

    #[test]
    fn rename_moves_files() {
        let mut fs = test_agent(Mode::Blocking);
        fs.write_file("/old-name", b"data").unwrap();
        fs.rename("/old-name", "/new-name").unwrap();
        assert_eq!(fs.read_file("/new-name").unwrap(), b"data");
        assert!(fs.stat("/old-name").is_err());
    }

    #[test]
    fn stat_of_open_dirty_file_reflects_buffer() {
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, &vec![0u8; 4096]).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 4096);
        fs.close(h).unwrap();
    }

    #[test]
    fn getfacl_and_setfacl() {
        let mut fs = test_agent(Mode::Blocking);
        fs.write_file("/doc", b"x").unwrap();
        assert!(fs.getfacl("/doc").unwrap().is_empty());
        fs.setfacl("/doc", &"bob".into(), Permission::Read).unwrap();
        assert!(fs
            .getfacl("/doc")
            .unwrap()
            .allows(&"bob".into(), Permission::Read));
    }

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

        #[allow(clippy::too_many_arguments)]
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
    fn cache_serves_repeated_reads_without_cloud_access() {
        let mut fs = test_agent(Mode::Blocking);
        fs.write_file("/f", &vec![1u8; 10_000]).unwrap();
        let downloads_before = fs.stats().cloud_downloads;
        for _ in 0..5 {
            fs.read_file("/f").unwrap();
        }
        assert_eq!(
            fs.stats().cloud_downloads,
            downloads_before,
            "reads of an unmodified file must be served locally (avoid reading principle)"
        );
        assert!(fs.stats().cache_served_reads >= 5);
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

    /// An agent over a WAN-latency simulated cloud, so background uploads
    /// take visible virtual time.
    fn wan_agent(config: ScfsConfig) -> ScfsAgent {
        let cloud = Arc::new(SimulatedCloud::new(
            cloud_store::providers::ProviderProfile::amazon_s3(),
            9,
        ));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        ScfsAgent::mount("alice".into(), config, storage, Some(coord), 9).unwrap()
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
        assert_eq!(after.0.puts, before.0.puts + 1, "the destination manifest");
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

    #[test]
    fn rename_settles_pending_uploads_under_the_moved_prefix() {
        let mut fs = wan_agent(ScfsConfig::test(Mode::NonBlocking));
        fs.write_file("/dir/f", &vec![1u8; 300_000]).unwrap();
        fs.write_file("/dir/f", &vec![2u8; 300_000]).unwrap();
        assert!(fs.upload_token("/dir/f").is_some());
        fs.rename("/dir", "/new").unwrap();
        assert!(
            fs.upload_token("/dir/f").is_none(),
            "no stale pending record may survive under the old path"
        );
        // A fresh file at the old path is independent of the moved object.
        fs.write_file("/dir/f", b"fresh").unwrap();
        assert_eq!(fs.read_file("/dir/f").unwrap(), b"fresh");
        assert_eq!(fs.read_file("/new/f").unwrap(), vec![2u8; 300_000]);
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

    #[test]
    fn setfacl_waits_only_on_its_own_objects_token() {
        let mut config = ScfsConfig::test(Mode::NonBlocking);
        // Sequential transfers keep /big's background upload far longer than
        // the foreground work between the two closes.
        config.max_parallel_transfers = 1;
        let mut fs = wan_agent(config);
        // 32 distinct chunks, so the upload cannot collapse through dedup.
        let mut big = vec![0u8; 32 << 20];
        for (i, chunk) in big.chunks_mut(1 << 20).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        fs.write_file("/big", &big).unwrap();
        fs.write_file("/small", &vec![2u8; 10_000]).unwrap();
        let big = fs.upload_token("/big").expect("big upload pending");
        fs.setfacl("/small", &"bob".into(), Permission::Read)
            .unwrap();
        assert!(
            fs.now() < big.ready_at(),
            "the grant on /small must not drain /big's upload ({} vs {})",
            fs.now(),
            big.ready_at()
        );
        assert!(fs
            .getfacl("/small")
            .unwrap()
            .allows(&"bob".into(), Permission::Read));
    }
}
