//! The SCFS Agent: the client-side implementation of the file system
//! (paper §2.5), combining the storage, metadata and locking services with
//! the two cache levels, the three operation modes, private name spaces and
//! the background garbage collector.
//!
//! The agent says each thing once, one module each:
//!
//! * `handles` — the open-file table: `open`, and byte-range reads, writes
//!   and truncates over a handle's sparse buffer, which faults a chunk in
//!   only when a read, a write or a commit's re-cut needs its bytes;
//! * `commit` — the version commit that `close` and `sync` run, and the
//!   records of commits still in flight. The three modes differ only in
//!   *when* `close` returns (paper §3.1): one `if` in `run_commit`. A copy
//!   is the [`FileSystem`] default, a read and a write, as through FUSE;
//! * `fetch` — manifests and the chunk-fetch loop behind read faults and
//!   the sequential prefetcher;
//! * `gc` — the background collector, which reclaims the storage of the files
//!   this agent wrote: old versions, and the whole object of a file it
//!   unlinked. It makes no metadata call: `unlink` already deleted the tuple;
//! * `versions` — the version records: per object, the newest version this
//!   agent opened or anchored. A record that moves or goes takes what only
//!   its old version named out of the cache.
//!
//! This file holds the agent itself, `on_lane` — the one way onto a
//! background lane — and the [`FileSystem`] calls that touch only metadata.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloud_store::store::OpCtx;
use cloud_store::types::{AccountId, Acl, Permission};
use coord::service::{CoordinationService, SessionId};
use scfs_crypto::ContentHash;
use sim_core::background::{BackgroundScheduler, Pending};
use sim_core::latency::LatencyProfile;
use sim_core::rng::DetRng;
use sim_core::schedule::ControllerSlot;
use sim_core::time::{Clock, SimDuration, SimInstant};
use sim_core::units::Bytes;

use crate::backend::FileStorage;
use crate::cache::{TieredCache, TieredStats, WriteMode};
use crate::config::ScfsConfig;
use crate::durability::DurabilityLevel;
use crate::error::ScfsError;
use crate::fs::FileSystem;
use crate::invariant::InvariantViolation;
use crate::metadata_service::MetadataService;
use crate::types::{is_under, normalize_path, FileHandle, FileMetadata, FileType, OpenFlags};

mod commit;
mod fetch;
mod gc;
mod handles;
mod versions;

use handles::OpenFile;
use versions::Versions;

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
    /// Payload bytes the cloud backend PUT: dirty chunks, plus the manifests
    /// stored as objects (one that rides in the metadata tuple is not an
    /// upload). Logical bytes: the CoC backend's replication/erasure-coding
    /// overhead on the wire is accounted per cloud, not here.
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
    /// Failed garbage-collection deletions (old-version prunes, releases of
    /// unlinked files or journaled blob deletes that errored); the
    /// collector keeps going, but the failures are surfaced
    /// here instead of being silently swallowed.
    pub gc_errors: u64,
    /// Release-journal entries re-attempted after a previous failed delete —
    /// each one is a blob the pre-journal collector would have leaked.
    pub gc_retried: u64,
    /// Blobs reclaimed on a retry pass: orphans recovered by the journal.
    pub gc_orphans_reclaimed: u64,
    /// Always 0: a chunk belongs to its object, so no upload is skipped for
    /// another file's content. A stub the benchmark package compiles
    /// against, to go with the ROADMAP's Benchmark-v2 item 1(b).
    pub dedup_hits_cross_file: u64,
    /// Parallel waves executed by the foreground transfer engine: a close
    /// that uploads 16 chunks at parallelism 4 adds 4 waves, and its
    /// foreground clock advanced by ~4 chunk-upload latencies.
    pub transfer_waves: u64,
    /// Reads served at byte-range granularity: the handle still had holes
    /// and the read touched a strict subset of the file's chunks, so it
    /// faulted in and copied out only those.
    pub range_reads: u64,
    /// Chunks fetched ahead of a sequential reader on the background clock.
    pub prefetched_chunks: u64,
    /// Non-blocking closes that had to wait for an earlier pending upload to
    /// complete because 64 commits were already in flight (the explicit
    /// backpressure of the bounded upload queue).
    pub backpressure_stalls: u64,
    /// Buffer bytes of the chunks `close`, `sync` and `fsync` cut
    /// themselves: the whole buffer for a first or truncating commit,
    /// otherwise from the start of the chunk holding the first written byte
    /// to where the cuts fall back onto the previous map's, less every chunk
    /// recognised as a `prev` chunk shifted by the length change — see
    /// [`crate::types::ChunkMap::rebuild_from`]. A chunk counts whole, though
    /// its hash may resume from a checkpoint and so read fewer bytes.
    pub rehashed_bytes: u64,
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
    /// The metadata and locking services: the agent's one coordination
    /// client.
    metadata: MetadataService,
    cache: TieredCache,
    /// Which version of each object the cache holds on purpose.
    versions: Versions,
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
    /// `MAX_PENDING_UPLOADS` (close applies backpressure); each entry
    /// is the one token `setfacl`, `sync` and reopens of that object wait
    /// on — never a global drain. Its value is the metadata as committed by
    /// the job: this agent's read-your-writes source while the commit
    /// instant is still in the foreground's future (records are retired
    /// before a rename can move the path in it).
    pending_uploads: BTreeMap<String, Pending<FileMetadata>>,
    /// Lock releases a close sent and did not wait for, by storage id: the
    /// instant each lands. The lock is re-entrant per session, so a
    /// write-open of the object waits for that instant before it locks —
    /// else it would "re-acquire" a lock the release then deletes.
    releases_in_flight: BTreeMap<String, SimInstant>,
    written_since_gc: u64,
    /// Files this agent has written: storage id → unlinked? The GC cycle
    /// iterates this, so it is ordered for run-to-run determinism.
    owned_files: BTreeMap<String, bool>,
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
        let coord = coord.filter(|_| config.mode.uses_coordination());
        let session = SessionId::new(format!("{}-{}", user.as_str(), seed));
        let (pns, expiry) = (config.private_name_spaces, config.metadata_cache_expiry);
        let metadata = MetadataService::new(coord, pns, user.clone(), session, expiry);
        Ok(ScfsAgent {
            cache: TieredCache::new(&config.cache, seed),
            versions: Versions::default(),
            mem_latency: LatencyProfile::main_memory(),
            user,
            config,
            #[expect(
                clippy::disallowed_methods,
                reason = "mount is the agent's clock root; every session starts at the virtual epoch by design"
            )]
            clock: Clock::new(),
            rng: DetRng::new(seed),
            storage,
            metadata,
            open_files: BTreeMap::new(),
            next_handle: 1,
            next_storage_id: 1,
            scheduler: BackgroundScheduler::new(),
            pending_uploads: BTreeMap::new(),
            releases_in_flight: BTreeMap::new(),
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

    /// The agent's metadata service (lookup statistics, private tuples).
    pub fn metadata_service(&self) -> &MetadataService {
        &self.metadata
    }

    /// The agent's storage backend instance (its version registry and
    /// release journal).
    pub fn storage(&self) -> &Arc<dyn FileStorage> {
        &self.storage
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
    /// cache tiers' byte accounting and the storage backend's release
    /// journal invariants. The model checker runs this after every
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

    /// The metadata of the object at `path`.
    fn lookup(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        self.metadata.get(&mut ctx, path)
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
        self.with_open(handle, |agent, file| agent.truncate_handle(file, size))
    }

    fn handle_size(&mut self, handle: FileHandle) -> Result<u64, ScfsError> {
        self.charge_syscall();
        // Served from the open handle, which knows the file's logical length
        // whether or not it has a flat buffer yet.
        let file = self.open_files.get(&handle);
        file.map(|file| file.len() as u64)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })
    }

    fn fsync(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.with_open(handle, |agent, file| {
            if file.is_dirty() {
                // Durability level 1: the data reaches the local disk, as
                // chunks, and the call returns once the spill has landed.
                // No manifest is spilled — the version is not committed yet,
                // so there is no root hash for a reader to look it up under.
                // The handle keeps the map: the commit re-cuts only what is
                // written after this point.
                let map = agent.cut_buffer(file)?;
                let spilled = agent.spill_chunks(file, &map, WriteMode::DiskOnly);
                agent.clock.advance_to(spilled);
                file.staged = Some(map);
                file.dirty = None;
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
        // and truncates keep the handle's `metadata.size` at the buffer's),
        // unless the file was unlinked under it.
        if let Some(open) = self
            .open_files
            .values()
            .find(|f| f.path == path && f.is_dirty() && !f.unlinked)
        {
            return Ok(open.metadata.clone());
        }
        // Read-your-writes: an in-flight background commit of this object is
        // already part of this client's view (see `open`).
        let md = self.lookup(&path)?;
        Ok(self.with_pending_commit(&path, md))
    }

    /// Creates the directory `path` in one coordination round trip: the
    /// create needs nothing the parent lookup answers, so the lookup runs on
    /// a fork of this mount's clock, the exclusive create on the clock itself
    /// from the same instant, and the call returns at the later of the two.
    ///
    /// A parent that is absent, unreadable or not a directory fails the call
    /// with the parent's error, which wins over the create's own (a child
    /// that already exists under a missing parent is still `NotFound`). A
    /// child the create did land is then deleted again: no transaction, a
    /// compensating delete, the one extra coordination call and only on this
    /// error path. Other mounts can see such a child for at most that one
    /// round trip; should the delete fail, it stays.
    fn mkdir(&mut self, path: &str) -> Result<(), ScfsError> {
        let path = self.enter(path)?;
        let now = self.clock.now();
        let md = FileMetadata::new_directory(&path, self.user.clone(), now);
        let parent = crate::types::parent_of(&path);
        let mut parent_clock = self.clock.fork();
        // The root always exists.
        let found = (parent != "/").then(|| {
            let mut ctx = OpCtx::new(&mut parent_clock, self.user.clone());
            self.metadata.get(&mut ctx, &parent)
        });
        let parent_error = match found {
            Some(Err(e)) => Some(e),
            Some(Ok(dir)) if dir.file_type != FileType::Directory => Some(ScfsError::WrongType {
                path: parent,
                expected: "directory",
            }),
            _ => None,
        };
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let created = self.metadata.write(&mut ctx, md, |_| {});
        ctx.clock.advance_to(parent_clock.now());
        let Some(e) = parent_error else {
            return created.map(drop);
        };
        if created.is_ok() {
            self.metadata.delete(&mut ctx, &path).ok();
        }
        Err(e)
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, ScfsError> {
        let path = self.enter(path)?;
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        self.metadata.list_children(&mut ctx, &path)
    }

    fn unlink(&mut self, path: &str) -> Result<(), ScfsError> {
        let path = self.enter(path)?;
        let id = self.lookup_file(&path)?.storage_id;
        // The name goes with the tuple; the garbage collector reclaims the
        // cloud objects later (paper §2.5.3).
        let delete = |agent: &mut Self| {
            let mut ctx = OpCtx::new(&mut agent.clock, agent.user.clone());
            agent.metadata.delete(&mut ctx, &path)
        };
        if self.pending_uploads.contains_key(&id) {
            // An upload of this object is still in flight: delete on the
            // object's lane, *after* that commit, so its metadata update
            // cannot bring the file back — and the foreground never waits
            // (unlinking a transient file right after a non-blocking close is
            // the hot path of Figure 8). This client still sees the path
            // absent at once: the metadata cache holds the absence the
            // delete records until past the instant it lands.
            let now = self.clock.now();
            self.on_lane(now, &id, delete).into_inner()?;
            self.pending_uploads.remove(&id);
        } else {
            delete(self)?;
        }
        if let Some(unlinked) = self.owned_files.get_mut(&id) {
            *unlinked = true;
        }
        // This agent's open handles of the file keep their buffers, like
        // descriptors of an unlinked POSIX file, but no commit of theirs
        // gives the name back. Another mount's handles' commits are refused.
        for file in self.open_files.values_mut() {
            file.unlinked |= file.metadata.storage_id == id;
        }
        // No version of the object is live any more: what only it named
        // leaves the cache, but for what those handles still name.
        self.move_record(&id, None);
        Ok(())
    }

    /// Renames `from`, and everything under it, to `to`. This agent's open
    /// handles follow their files, as descriptors do, so a commit of theirs
    /// lands under the new name; its handles of a name the rename clobbers,
    /// `to` itself or one under it that a moved name overwrites, are
    /// orphaned, as by `unlink`, as POSIX orphans the clobbered inode.
    /// Another mount's handles are not reached, as by `unlink`: the tuple
    /// they opened is gone, so their commits are refused.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        let from = self.enter(from)?;
        let to = normalize_path(to)?;
        // Rename moves a whole path prefix and may clobber the destination:
        // the moved metadata must carry any in-flight version commits, and a
        // pending record left behind under either tree would resolve reads
        // of the old path to the moved object — settle exactly those tokens
        // first.
        self.wait_pending_uploads(|_, pending| {
            let path = &pending.value().path;
            is_under(path, &from) || is_under(path, &to)
        });
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        self.metadata.rename(&mut ctx, &from, &to)?;
        for file in self.open_files.values_mut() {
            if is_under(&file.path, &from) {
                file.path = format!("{to}{}", &file.path[from.len()..]);
                file.metadata.path = file.path.clone();
            } else if is_under(&file.path, &to) {
                let held = self.metadata.get(&mut ctx, &file.path);
                file.unlinked |= !held.is_ok_and(|md| md.storage_id == file.metadata.storage_id);
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
        // (i) update the metadata tuple and its coordination-service ACL;
        // (ii) the ACLs of the cloud objects holding the file data, to it.
        let grant = |acl: &mut Acl| acl.grant(user.clone(), permission);
        let md = self.metadata.set_acl(&mut ctx, metadata, grant)?;
        if md.file_type == FileType::File && md.version_hash.is_some() {
            self.storage.set_acl(&mut ctx, &md.storage_id, &md.acl)?;
        }
        Ok(())
    }

    fn getfacl(&mut self, path: &str) -> Result<Acl, ScfsError> {
        let path = self.enter(path)?;
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        Ok(self.metadata.get(&mut ctx, &path)?.acl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SingleCloudStorage;
    use crate::config::Mode;
    use cloud_store::sim_cloud::SimulatedCloud;
    use coord::replication::ReplicatedCoordinator;

    pub(super) fn test_agent(mode: Mode) -> ScfsAgent {
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
    fn stat_of_open_dirty_file_reflects_buffer() {
        let mut fs = test_agent(Mode::Blocking);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, &vec![0u8; 4096]).unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 4096);
        fs.close(h).unwrap();
    }

    /// Four distinct 1 MiB chunks (the default chunk size).
    pub(super) fn four_chunks() -> Vec<u8> {
        let mut data = vec![0u8; 4 << 20];
        for (i, chunk) in data.chunks_mut(1 << 20).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        data
    }

    /// `data` with one chunk's worth of edit: four bytes into chunk `index`.
    pub(super) fn edited(mut data: Vec<u8>, index: usize) -> (Vec<u8>, u64) {
        let offset = (index << 20) + 10;
        data[offset..offset + 4].copy_from_slice(b"edit");
        (data, offset as u64)
    }

    /// An agent over a WAN-latency simulated cloud, so background uploads
    /// take visible virtual time.
    pub(super) fn wan_agent(config: ScfsConfig) -> ScfsAgent {
        let cloud = Arc::new(SimulatedCloud::new(
            cloud_store::providers::ProviderProfile::amazon_s3(),
            9,
        ));
        let storage = Arc::new(SingleCloudStorage::new(cloud));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        ScfsAgent::mount("alice".into(), config, storage, Some(coord), 9).unwrap()
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
    fn setfacl_waits_only_on_its_own_objects_token() {
        // 32 distinct chunks take eight waves, which keeps /big's background
        // upload far longer than the foreground work between the two closes;
        // distinct, so the upload cannot collapse through dedup.
        let mut fs = wan_agent(ScfsConfig::test(Mode::NonBlocking));
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
