//! Storage backends: single cloud (AWS) and cloud-of-clouds (CoC).
//!
//! SCFS provides a pluggable backplane (paper §3.2, Figure 5): file data can
//! go to a single storage cloud (Amazon S3 in the paper's AWS backend) or to
//! a DepSky cloud-of-clouds. Both are one engine, [`ChunkedStorage`], over a
//! private seam of four primitives — put, get, delete and set-ACL of a blob
//! named by a [`BlobName`], which alone knows how either backend spells it —
//! and each backend is an adapter of four short forwards ([`SingleCloud`],
//! [`CloudOfClouds`]). Both are hidden behind [`FileStorage`], whose
//! operations are what the storage service of the agent needs on the chunked
//! data path:
//!
//! * write a new immutable version — upload the chunks of the file that no
//!   retained version of the same object already names (a chunk belongs to
//!   its object, see [`crate::chunkstore`]) plus, unless the caller's
//!   metadata tuple carries it (the table below), a small [`ChunkMap`]
//!   manifest stored per object under its root hash (the storage-service
//!   half of the consistency-anchor algorithm). Everything here is
//!   boundary-agnostic: dirty-chunk selection and liveness compare content
//!   hashes, so fixed-size and content-defined ([`ChunkMap::build_cdc`])
//!   maps move through unchanged;
//! * read the manifest with a given root hash, and individual chunks of an
//!   object by content hash (only the chunks a reader is missing);
//! * release old versions — a blob is physically reclaimed once no
//!   retained version of its object names it, through the two-phase
//!   release journal ([`FileStorage::replay_release_journal`]), so a failed
//!   delete is retried instead of leaking an orphan;
//! * propagate ACL changes to the stored manifests of a file (chunks are
//!   owned by the chunk-store principal and are capability-protected by
//!   whatever holds the manifest, so `setfacl` is at most O(versions), never
//!   O(versions × chunks)).
//!
//! A copy is the paper's: a read of the source and a write of the
//! destination, which stores the destination's own chunks.
//!
//! ## Commit invariant
//!
//! Content-addressed objects are unordered among themselves; only the anchor
//! update is ordered after all of them. A chunk or manifest is named by its
//! hash, and no reader learns a version's root hash before the agent, having
//! seen [`FileStorage::write_version`] return, publishes it in the
//! coordination service (paper §2.4: the storage service may be unordered,
//! readers loop until the anchored object appears). So `write_version` sends
//! everything the version stores in one wave — the first chunk wave and,
//! from the same instant, a stored manifest (then its ACL tag) — and returns
//! when all of it has landed; DepSky's [`DepSkyClient::write_blob`] does the
//! same with a blob's blocks. A version that fails
//! part-way is invisible, and the release intents it journals on failure,
//! for everything it meant to store, reclaim whatever landed.
//!
//! A version's manifest lives in exactly one place, and
//! [`manifest_rides_inline`] — asked here and by the tuple writer,
//! [`crate::types::FileMetadata::commit_version`] — is the one decision:
//!
//! | encoded manifest | ≤ [`INLINE_MANIFEST_MAX`] (≤ 12 fixed / ≤ 9 CDC chunks) | larger |
//! |---|---|---|
//! | lives in | the metadata tuple, beside the root hash it hashes to | an object under `id\|root` |
//! | read by | whoever may read the tuple, and no one else: [`FileStorage::read_manifest`] finds no object | whoever the object's cloud ACL admits |
//! | a commit stores | the dirty chunks: no manifest PUT, no ACL tag, no manifest intent in the journal | the dirty chunks and, beside them, the tagged manifest |
//! | GC deletes | the chunks no retained version of the object names | those chunks and the manifest object |
//! | the cloud alone reconstructs | which chunks each object has — not which version they belong to, or in what order | every retained version of every id |
//!
//! For an inline version a close therefore sends its chunk PUTs, one
//! metadata write and one unlock, and waits for all but the unlock.
//! The id → chunks link of such a version has the durability of the anchor
//! (the coordination service's replicas; the private name space in the
//! non-sharing mode) — which the path → id → root-hash link always had.
//!
//! [`INLINE_MANIFEST_MAX`]: crate::types::INLINE_MANIFEST_MAX

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::store::{ObjectStore, OpCtx};
use cloud_store::types::{AccountId, Acl};
use depsky::register::DepSkyClient;
use parking_lot::Mutex;
use scfs_crypto::{sha256, ContentHash};
use sim_core::background::{BackgroundScheduler, Pending};
use sim_core::schedule::{ChoiceKind, ControllerSlot};
use sim_core::time::SimInstant;

use crate::chunkstore::{BlobAudit, BlobName, ChunkStore, JournalOpts, ReplayReport};
use crate::durability::DurabilityLevel;
use crate::error::ScfsError;
use crate::invariant::InvariantViolation;
use crate::transfer::{execute_plan, TransferOptions, TransferPlan};
use crate::types::{manifest_rides_inline, ChunkMap};

/// Transfer accounting returned by a successful [`FileStorage::write_version`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Root hash of the written version (hash of the encoded [`ChunkMap`]);
    /// this is the `hash` the consistency anchor stores.
    pub root_hash: ContentHash,
    /// Chunks actually uploaded (dirty chunks no retained version of the
    /// object names).
    pub chunks_uploaded: u64,
    /// Payload bytes a PUT carried: the dirty chunks, plus the manifest when
    /// the version stores one (an inline manifest travels in the metadata
    /// tuple and costs the backend nothing). This counts logical (plaintext)
    /// bytes — the CoC backend additionally pays its replication/
    /// erasure-coding overhead (~1.5× with the DepSky-CA preferred quorum) on
    /// the wire, which is accounted in the per-cloud
    /// [`cloud_store::CloudMetrics`], not here.
    pub bytes_uploaded: u64,
    /// Parallel waves the chunk uploads took (0 when no chunk moved); the
    /// caller's clock advanced by roughly this many chunk-upload latencies.
    pub waves: u64,
    /// Always 0: a chunk belongs to its object, so no version reuses
    /// another file's chunk. A stub the benchmark package compiles against,
    /// to go with the ROADMAP's Benchmark-v2 item 1(b).
    pub dedup_cross_file: u64,
}

/// One stored version of an object: its root hash and the chunks it names.
/// Backends keep these per object id so the garbage collector can release
/// per-version references without listing the cloud.
#[derive(Debug)]
struct StoredVersion {
    root: ContentHash,
    /// The version's distinct chunks, in file order
    /// ([`ChunkMap::distinct_chunks`]).
    chunks: Vec<ContentHash>,
    /// Whether the version has a manifest object in the cloud(s) —
    /// `!manifest_rides_inline`, decided once at commit. A root names one
    /// encoding, so versions sharing a root agree on it.
    stored_manifest: bool,
}

impl StoredVersion {
    /// Whether this version, of the object `blob` belongs to, names `blob`:
    /// one of its chunks, or the manifest object it stored.
    fn names(&self, blob: &BlobName) -> bool {
        match blob {
            BlobName::Chunk { hash, .. } => self.chunks.contains(hash),
            BlobName::Manifest { root, .. } => self.stored_manifest && self.root == *root,
        }
    }
}

/// Registry of the versions written through one backend instance: object id
/// → versions, newest last. It records which commits exist, the chunks of
/// each (for liveness) and whether it stored a manifest object (for
/// `set_acl`). A blob is live while a retained version of its object names
/// it. It answers for no manifest: an inline one is the tuple's to give.
#[derive(Debug, Default)]
struct VersionRegistry {
    versions: BTreeMap<String, Vec<StoredVersion>>,
}

impl VersionRegistry {
    /// Records a newly written version.
    fn push(&mut self, id: &str, version: StoredVersion) {
        self.versions
            .entry(id.to_string())
            .or_default()
            .push(version);
    }

    /// Whether this registry has any record of `id`.
    fn tracks(&self, id: &str) -> bool {
        self.versions.contains_key(id)
    }

    /// Every chunk hash a retained version of `id` names: the chunks a new
    /// version of `id` need not upload.
    fn live_chunks(&self, id: &str) -> HashSet<ContentHash> {
        self.versions
            .get(id)
            .map(|vs| vs.iter().flat_map(|v| v.chunks.iter().copied()).collect())
            .unwrap_or_default()
    }

    /// The distinct roots of the retained versions of `id` that stored a
    /// manifest object — the ACL-propagation targets. Inline versions are
    /// not listed: nothing of theirs exists in the cloud but chunks.
    fn live_manifests(&self, id: &str) -> Vec<ContentHash> {
        let mut seen = HashSet::new();
        self.versions
            .get(id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .filter(|v| v.stored_manifest && seen.insert(v.root))
            .map(|v| v.root)
            .collect()
    }

    /// Whether a retained version of `blob`'s object names it.
    fn names(&self, blob: &BlobName) -> bool {
        let versions = self.versions.get(blob.id());
        versions.is_some_and(|vs| vs.iter().any(|v| v.names(blob)))
    }

    /// Every blob a retained version names.
    fn live_blobs(&self) -> impl Iterator<Item = BlobName> + '_ {
        self.versions.iter().flat_map(|(id, versions)| {
            versions.iter().flat_map(move |v| {
                let chunks = v.chunks.iter().map(move |h| BlobName::chunk(id, *h));
                let manifest = v.stored_manifest.then(|| BlobName::manifest(id, v.root));
                chunks.chain(manifest)
            })
        })
    }

    /// Drops and returns all but the newest `keep` versions of `id`, oldest
    /// first.
    fn prune(&mut self, id: &str, keep: usize) -> Vec<StoredVersion> {
        match self.versions.get_mut(id) {
            Some(list) if list.len() > keep => {
                let cut = list.len() - keep;
                list.drain(..cut).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Removes and returns every version of `id`.
    fn remove_all(&mut self, id: &str) -> Vec<StoredVersion> {
        self.versions.remove(id).unwrap_or_default()
    }
}

/// The shared mutable state of one backend instance: the per-object version
/// registry and the release journal.
#[derive(Debug, Default)]
struct StoreState {
    registry: VersionRegistry,
    chunks: ChunkStore,
    /// Schedule-controller seam: empty in production (journal replay walks
    /// entries oldest-first); the model checker installs one to explore
    /// other replay interleavings.
    controller: ControllerSlot,
}

impl StoreState {
    /// The tail of every version commit, once all its blobs have landed:
    /// records the version, and cancels the pending intents of what it
    /// stores — its distinct chunks and its manifest object, if it stores
    /// one — that an earlier prune or failed write left.
    fn commit_version(&mut self, id: &str, version: StoredVersion) {
        let chunks = version.chunks.iter().map(|h| BlobName::chunk(id, *h));
        let manifest = version
            .stored_manifest
            .then(|| BlobName::manifest(id, version.root));
        self.chunks.cancel(&chunks.chain(manifest).collect());
        self.registry.push(id, version);
    }

    /// Phase one of deletion: journals the release intents of what
    /// `dropped`, versions of `id` no longer retained, named and no retained
    /// version names — the stored manifests, then each version's distinct
    /// chunks in file order (hash-set order would make which delete a fault
    /// hits vary run to run). A blob several dropped versions name is
    /// journaled with the last of them. Returns how many versions went.
    fn release(&mut self, id: &str, dropped: Vec<StoredVersion>) -> usize {
        let mut roots: HashSet<ContentHash> =
            self.registry.live_manifests(id).into_iter().collect();
        let mut chunks = self.registry.live_chunks(id);
        // Newest first, so a blob is journaled with the last version naming
        // it; then back in version order.
        let mut manifests = Vec::new();
        let mut per_version = Vec::new();
        for v in dropped.iter().rev() {
            if v.stored_manifest && roots.insert(v.root) {
                manifests.push(BlobName::manifest(id, v.root));
            }
            let gone = v.chunks.iter().filter(|h| chunks.insert(**h));
            per_version.push(gone.map(|h| BlobName::chunk(id, *h)).collect::<Vec<_>>());
        }
        let chunks = per_version.into_iter().rev().flatten();
        self.chunks
            .journal(manifests.into_iter().rev().chain(chunks));
        dropped.len()
    }
}

/// Chunked, content-addressed versioned storage — the "SS" of the
/// consistency-anchor algorithm.
pub trait FileStorage: Send + Sync {
    /// Short backend label for result tables (`"AWS"` or `"CoC"`).
    fn label(&self) -> &'static str;

    /// Stores a new version of the object identified by `id`: uploads the
    /// chunks of `data` (laid out by `map`) that no retained version of `id`
    /// names and, beside the first chunk wave, the encoded manifest under
    /// its root hash — unless it rides in the caller's metadata tuple
    /// ([`manifest_rides_inline`]; the module's commit invariant); once all
    /// of it has landed, records the version. The chunks are `id`'s own:
    /// identical content under another object is not reused. When the
    /// instance has no record of `id` (a fresh mount), chunks present in
    /// `prev` are trusted as stored. Only the
    /// chunks it uploads are read from `data`: a caller may leave a chunk
    /// `prev` names unread (an open handle's hole), and a chunk `prev` names
    /// whose bytes in `data` do not hash to it fails the write with an
    /// integrity violation before anything is stored. Newly written
    /// manifests are tagged with `acl` when given, so collaborators can read
    /// the new version (chunks need no tagging — they are owned by the
    /// chunk-store principal). `is_new` hints that the object was never
    /// written before. The dirty chunks move through the transfer engine, at
    /// most `opts.max_parallel` at a time; the bound governs chunks only.
    #[allow(clippy::too_many_arguments, reason = "one per part of the transfer")]
    fn write_version(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
        is_new: bool,
        acl: Option<&Acl>,
        opts: &TransferOptions,
    ) -> Result<WriteOutcome, ScfsError>;

    /// Reads the chunk map of the version of `id` whose root hash is `hash`
    /// from its manifest object. Returns a transient not-found error while
    /// the version is not yet visible — the caller runs the
    /// consistency-anchor retry loop — and for a version that stored no
    /// manifest object, on every instance, the committing one included: its
    /// map is in its metadata tuple and nowhere else.
    fn read_manifest(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<ChunkMap, ScfsError>;

    /// Reads the encoded chunk map of the version of `id` whose root hash is
    /// `hash` — the verified bytes themselves, which is what a reader caches.
    /// Transient not-found like [`FileStorage::read_manifest`]. The default
    /// serves storages that only implement `read_manifest` by re-encoding
    /// its result; the chunked backends hand out the stored bytes.
    fn read_manifest_bytes(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, ScfsError> {
        Ok(self.read_manifest(ctx, id, hash)?.encode())
    }

    /// Reads one chunk of `id` by content hash, verifying it.
    fn read_chunk(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, ScfsError>;

    /// Async twin of [`FileStorage::write_version`]: schedules the version
    /// commit as a background job on the object's lane of `sched` (commits
    /// of the same object serialize; different objects overlap) and returns
    /// its completion token. The job runs on a scheduler-owned forked clock,
    /// so the caller's clock is not charged — the blocking form is
    /// `begin_write_version(...).wait(ctx.clock)`.
    #[allow(clippy::too_many_arguments, reason = "one per part of the transfer")]
    fn begin_write_version(
        &self,
        sched: &mut BackgroundScheduler,
        now: SimInstant,
        account: AccountId,
        id: &str,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
        is_new: bool,
        acl: Option<&Acl>,
        opts: &TransferOptions,
    ) -> Pending<Result<WriteOutcome, ScfsError>> {
        sched.spawn(now, Some(id), |bg_clock| {
            let mut ctx = OpCtx::new(bg_clock, account);
            self.write_version(&mut ctx, id, data, map, prev, is_new, acl, opts)
        })
    }

    /// Async twin of the chunk-fetch path: schedules the transfer of the
    /// chunks of `map` at `indices` on the object's lane of `sched` and
    /// returns a token for their bytes, in `indices` order (duplicate
    /// content moves once and fills every requesting position).
    #[allow(clippy::too_many_arguments, reason = "one per part of the transfer")]
    fn begin_read_chunks(
        &self,
        sched: &mut BackgroundScheduler,
        now: SimInstant,
        account: AccountId,
        id: &str,
        map: &ChunkMap,
        indices: Vec<usize>,
        opts: &TransferOptions,
    ) -> Pending<Result<Vec<Vec<u8>>, ScfsError>> {
        let plan = TransferPlan::fetch(map, indices.iter().copied(), |_| false);
        sched.spawn(now, Some(id), |bg_clock| {
            let mut ctx = OpCtx::new(bg_clock, account);
            let (chunks, _) = execute_plan(&mut ctx, opts, &plan, |job, fork_ctx| {
                self.read_chunk(fork_ctx, id, &job.hash)
            })?;
            let by_hash: BTreeMap<&ContentHash, &Vec<u8>> = plan
                .jobs()
                .iter()
                .map(|job| &job.hash)
                .zip(chunks.iter())
                .collect();
            indices
                .iter()
                .map(|&index| {
                    let hash = &map.chunks()[index];
                    let chunk = by_hash.get(hash).ok_or(StorageError::NotFound {
                        key: id.to_string(),
                    })?;
                    if chunk.len() != map.chunk_len(index) {
                        return Err(StorageError::IntegrityViolation {
                            key: id.to_string(),
                        }
                        .into());
                    }
                    Ok((*chunk).clone())
                })
                .collect()
        })
    }

    /// Reads and reassembles the version of `id` whose root hash is `hash`
    /// from its stored manifest object and every chunk, fetching the chunks
    /// through the transfer engine at most `opts.max_parallel` at a time.
    /// This is the blocking path re-expressed over the async twin: a begin
    /// on a throwaway scheduler followed by an immediate wait.
    ///
    /// It reads the map through [`FileStorage::read_manifest`], so a version
    /// whose manifest rides in the metadata tuple (no manifest object is
    /// stored) fails with a transient not-found, on every backend instance,
    /// the committing one included. No production path calls it (the agent
    /// reads chunks through the map its tuple or manifest gave it); it stays
    /// because the benchmark's decorator forwards it (ROADMAP item 1(b)).
    fn read_version(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
        opts: &TransferOptions,
    ) -> Result<Vec<u8>, ScfsError> {
        let map = self.read_manifest(ctx, id, hash)?;
        let mut sched = BackgroundScheduler::new();
        let chunks = self
            .begin_read_chunks(
                &mut sched,
                ctx.clock.now(),
                ctx.account.clone(),
                id,
                &map,
                (0..map.chunk_count()).collect(),
                opts,
            )
            .wait(ctx.clock)?;
        let mut data = vec![0u8; map.file_len() as usize];
        for (index, chunk) in chunks.iter().enumerate() {
            data[map.byte_range(index)].copy_from_slice(chunk);
        }
        Ok(data)
    }

    /// Always `Ok(None)`, and no caller: a copy reads the source and writes
    /// the destination, whose chunks are its own. A stub the benchmark
    /// package's storage decorator compiles against, to go with the
    /// ROADMAP's Benchmark-v2 item 1(b).
    fn copy_version(
        &self,
        ctx: &mut OpCtx<'_>,
        src_id: &str,
        dst_id: &str,
        root: &ContentHash,
        acl: Option<&Acl>,
    ) -> Result<Option<WriteOutcome>, ScfsError> {
        let _ = (ctx, src_id, dst_id, root, acl);
        Ok(None)
    }

    /// The durability level (Table 1) data reaches once a version commit on
    /// this backend completes: level 2 for a single cloud, level 3 for a
    /// cloud-of-clouds.
    fn cloud_durability(&self) -> DurabilityLevel {
        DurabilityLevel::SingleCloud
    }

    /// Releases all but the newest `keep` versions of `id`: each dropped
    /// version's chunk references are dropped and release intents are
    /// journaled (phase one). Physical deletion happens in
    /// [`FileStorage::replay_release_journal`] (phase two), so this call
    /// never aborts half-way and never loses track of a blob. Returns how
    /// many versions were removed.
    fn delete_old_versions(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        keep: usize,
    ) -> Result<usize, ScfsError>;

    /// Releases every version of `id` (phase one of deletion; see
    /// [`FileStorage::delete_old_versions`]).
    fn delete_all(&self, ctx: &mut OpCtx<'_>, id: &str) -> Result<(), ScfsError>;

    /// Releases the newest version of `id`, which a refused anchor write left
    /// unnamed, but for the chunks of `prev`, its base. The default keeps it.
    fn release_unanchored(&self, _id: &str, _prev: Option<&ChunkMap>) {}

    /// Phase two of reclamation: attempts the pending release intents —
    /// deleting the blobs no retained version names — and marks the
    /// successful ones applied.
    /// Failed deletes leave their entries pending for the next pass, so a
    /// transient cloud error delays reclamation instead of leaking blobs.
    /// Best-effort: per-blob failures are counted in the report, not
    /// returned as errors.
    fn replay_release_journal(
        &self,
        ctx: &mut OpCtx<'_>,
        opts: &JournalOpts,
    ) -> Result<ReplayReport, ScfsError> {
        let _ = (ctx, opts);
        Ok(ReplayReport::default())
    }

    /// Number of release intents still pending (0 for backends without a
    /// journal).
    fn pending_releases(&self) -> usize {
        0
    }

    /// Installs a schedule controller driving the GC journal-replay order.
    /// Only the model checker calls this; backends without a journal (and
    /// test doubles) can ignore it — the default does nothing.
    fn install_schedule_controller(&self, slot: ControllerSlot) {
        let _ = slot;
    }

    /// Appends any violated storage invariants to `out`. A stub: no
    /// backend has one left to check, so nothing overrides this default,
    /// which reports nothing. It stays because the benchmark package's
    /// storage decorator forwards it, and goes with the ROADMAP's
    /// Benchmark-v2 item 1(b).
    fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        let _ = out;
    }

    /// Propagates an ACL to the manifest objects `id` has in the cloud(s);
    /// versions whose manifest rides in the metadata tuple have none, and
    /// the tuple's own ACL is what admits their readers.
    fn set_acl(&self, ctx: &mut OpCtx<'_>, id: &str, acl: &Acl) -> Result<(), ScfsError>;
}

/// What each backend supplies: the four things one can do to a named blob
/// in its cloud(s). `ctx` carries the principal the engine chose for the
/// blob's kind ([`principal_ctx`]); how the name is spelled there is
/// [`BlobName`]'s to say. Everything else — dirty-chunk selection,
/// liveness, manifest commit, the release journal, ACL fan-out — is
/// [`ChunkedStorage`]'s [`FileStorage`] implementation below, written once.
trait BlobStore: Send + Sync {
    /// Short backend label for result tables.
    const LABEL: &'static str;
    /// Durability level a committed version reaches on this backend.
    const DURABILITY: DurabilityLevel;

    /// Stores `data` as `blob`.
    fn put(&self, ctx: &mut OpCtx<'_>, blob: &BlobName, data: &[u8]) -> Result<(), StorageError>;

    /// Reads `blob` back, verified against the hash that names it.
    fn get(&self, ctx: &mut OpCtx<'_>, blob: &BlobName) -> Result<Vec<u8>, StorageError>;

    /// Deletes `blob`; a missing blob is not an error (replay may race with
    /// another instance's collector).
    fn delete(&self, ctx: &mut OpCtx<'_>, blob: &BlobName) -> Result<(), StorageError>;

    /// Propagates an ACL to `blob`.
    fn set_acl(&self, ctx: &mut OpCtx<'_>, blob: &BlobName, acl: &Acl) -> Result<(), StorageError>;
}

/// The context a request for `blob` is made under: the caller's clock, and
/// the account its kind calls for ([`BlobName::principal`]).
fn principal_ctx<'c>(ctx: &'c mut OpCtx<'_>, blob: &BlobName) -> OpCtx<'c> {
    OpCtx::new(&mut *ctx.clock, blob.principal(&ctx.account))
}

/// The chunked storage engine over one backend's four blob primitives: the
/// version registry, the release journal, and the whole of [`FileStorage`].
/// Public under its two instantiations, [`SingleCloudStorage`] and
/// [`CloudOfCloudsStorage`].
pub struct ChunkedStorage<B> {
    blobs: B,
    state: Mutex<StoreState>,
}

impl<B> ChunkedStorage<B> {
    fn over(blobs: B) -> Self {
        ChunkedStorage {
            blobs,
            state: Mutex::new(StoreState::default()),
        }
    }

    /// The blobs that may legitimately exist in the cloud(s) right now; feed
    /// a raw key listing to [`BlobAudit::orphans`] to assert the GC leaked
    /// nothing.
    pub fn blob_audit(&self) -> BlobAudit {
        let state = self.state.lock();
        BlobAudit::new(state.chunks.reachable_blobs(state.registry.live_blobs()))
    }
}

/// Stores the manifest of `id` under `root` and tags it with `acl`, when
/// given, so collaborators can read the version it describes.
fn put_tagged_manifest(
    blobs: &impl BlobStore,
    ctx: &mut OpCtx<'_>,
    id: &str,
    root: &ContentHash,
    manifest: &[u8],
    acl: Option<&Acl>,
) -> Result<(), ScfsError> {
    let blob = BlobName::manifest(id, *root);
    let mut ctx = principal_ctx(ctx, &blob);
    blobs.put(&mut ctx, &blob, manifest)?;
    if let Some(acl) = acl {
        blobs.set_acl(&mut ctx, &blob, acl)?;
    }
    Ok(())
}

/// The manifest object a committing version stores: `manifest` itself, or
/// `None` when it rides in the metadata tuple instead
/// ([`manifest_rides_inline`]) and the cloud sees chunks only.
fn manifest_object(manifest: &[u8]) -> Option<&[u8]> {
    (!manifest_rides_inline(manifest)).then_some(manifest)
}

impl<B: BlobStore> FileStorage for ChunkedStorage<B> {
    fn label(&self) -> &'static str {
        B::LABEL
    }

    fn cloud_durability(&self) -> DurabilityLevel {
        B::DURABILITY
    }

    fn write_version(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
        _is_new: bool,
        acl: Option<&Acl>,
        opts: &TransferOptions,
    ) -> Result<WriteOutcome, ScfsError> {
        let (stored, tracked) = {
            let state = self.state.lock();
            (state.registry.live_chunks(id), state.registry.tracks(id))
        };
        // Once the instance records `id`, its retained versions alone decide
        // which chunks are stored. `prev` is only trusted on a fresh
        // instance with no record — otherwise a chunk that is clean relative
        // to `prev` but already reclaimed would be silently omitted,
        // committing a version that can never be read.
        let prev_chunks: HashSet<ContentHash> =
            prev.map_or_else(HashSet::new, |prev| prev.chunks().iter().copied().collect());
        let trusted = |h: &ContentHash| !tracked && prev_chunks.contains(h);
        let plan = TransferPlan::upload(map, |h| stored.contains(h) || trusted(h));
        // A chunk clean relative to `prev` is one the caller need not hold:
        // an open handle leaves a chunk it never read as a hole in `data`.
        // When the store no longer has it, `data` has no copy to upload, and
        // bytes that do not hash to the name must never be stored under it.
        if let Some(job) = plan.jobs().iter().find(|job| {
            prev_chunks.contains(&job.hash) && sha256(&data[map.byte_range(job.index)]) != job.hash
        }) {
            return Err(StorageError::IntegrityViolation {
                key: BlobName::chunk(id, job.hash).key(),
            }
            .into());
        }
        let manifest = map.encode();
        let root = sha256(&manifest);
        let object = manifest_object(&manifest);
        // A stored manifest (and its ACL tag) rides beside the first chunk
        // wave on a fork taken at the same instant: nothing can name it until
        // the anchor publishes `root`, so it needs no ordering after the
        // chunks. An inline one is the caller's to anchor: no request here.
        let mut manifest_clock = ctx.clock.fork();
        let manifest_put = object.map_or(Ok(()), |object| {
            let mut side_ctx = OpCtx::new(&mut manifest_clock, ctx.account.clone());
            put_tagged_manifest(&self.blobs, &mut side_ctx, id, &root, object, acl)
        });
        let uploaded = execute_plan(ctx, opts, &plan, |job, fork_ctx| {
            let chunk = &data[map.byte_range(job.index)];
            let blob = BlobName::chunk(id, job.hash);
            self.blobs
                .put(&mut principal_ctx(fork_ctx, &blob), &blob, chunk)?;
            Ok(chunk.len() as u64)
        });
        // Join before looking at either result: both sides were issued, so a
        // failure on one still charges the other's time. A failed write must
        // not orphan what it managed to upload: it journals its plan's
        // chunks, then its manifest, and the next replay reclaims them.
        ctx.clock.advance_to(manifest_clock.now());
        let (sizes, report) = match (uploaded, manifest_put) {
            (Ok(uploaded), Ok(())) => uploaded,
            (Err(e), _) | (Ok(_), Err(e)) => {
                let chunks = plan.jobs().iter().map(|j| BlobName::chunk(id, j.hash));
                let manifest = object.map(|_| BlobName::manifest(id, root));
                self.state.lock().chunks.journal(chunks.chain(manifest));
                return Err(e);
            }
        };
        let version = StoredVersion {
            root,
            chunks: map.distinct_chunks(),
            stored_manifest: object.is_some(),
        };
        self.state.lock().commit_version(id, version);
        Ok(WriteOutcome {
            root_hash: root,
            chunks_uploaded: report.chunks,
            bytes_uploaded: sizes.iter().sum::<u64>() + object.map_or(0, |o| o.len() as u64),
            waves: report.waves,
            dedup_cross_file: 0,
        })
    }

    fn read_manifest(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<ChunkMap, ScfsError> {
        let bytes = self.read_manifest_bytes(ctx, id, hash)?;
        ChunkMap::decode(&bytes).map_err(|_| {
            StorageError::IntegrityViolation {
                key: id.to_string(),
            }
            .into()
        })
    }

    fn read_manifest_bytes(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, ScfsError> {
        let blob = BlobName::manifest(id, *hash);
        Ok(self.blobs.get(&mut principal_ctx(ctx, &blob), &blob)?)
    }

    fn read_chunk(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, ScfsError> {
        let blob = BlobName::chunk(id, *hash);
        Ok(self.blobs.get(&mut principal_ctx(ctx, &blob), &blob)?)
    }

    fn delete_old_versions(
        &self,
        _ctx: &mut OpCtx<'_>,
        id: &str,
        keep: usize,
    ) -> Result<usize, ScfsError> {
        let mut state = self.state.lock();
        let pruned = state.registry.prune(id, keep);
        Ok(state.release(id, pruned))
    }

    fn delete_all(&self, _ctx: &mut OpCtx<'_>, id: &str) -> Result<(), ScfsError> {
        let mut state = self.state.lock();
        let pruned = state.registry.remove_all(id);
        state.release(id, pruned);
        Ok(())
    }

    fn release_unanchored(&self, id: &str, prev: Option<&ChunkMap>) {
        let mut state = self.state.lock();
        if let Some(mut version) = state.registry.versions.get_mut(id).and_then(Vec::pop) {
            let base = prev.map_or(&[][..], ChunkMap::chunks);
            version.chunks.retain(|h| !base.contains(h));
            state.release(id, vec![version]);
        }
    }

    fn replay_release_journal(
        &self,
        ctx: &mut OpCtx<'_>,
        _opts: &JournalOpts,
    ) -> Result<ReplayReport, ScfsError> {
        let mut report = ReplayReport::default();
        let (mut batch, slot) = {
            let mut state = self.state.lock();
            (state.chunks.take_pending(), state.controller.clone())
        };
        // Model-checking seam: explore other replay interleavings of this
        // batch (the order entries of one pass race each other). With no
        // controller installed the queue order — oldest first — is kept.
        slot.permute(ChoiceKind::JournalReplay, "gc-replay", &mut batch);
        for entry in batch {
            report.attempted += 1;
            let retried = entry.attempts > 0;
            report.retried += u64::from(retried);
            // A blob a retained version names again is not deleted: the
            // entry is applied as it is.
            if self.state.lock().registry.names(&entry.target) {
                report.cancelled += 1;
                continue;
            }
            let blob = &entry.target;
            match self.blobs.delete(&mut principal_ctx(ctx, blob), blob) {
                Ok(()) => {
                    report.deleted += 1;
                    report.reclaimed_after_retry += u64::from(retried);
                }
                Err(_) => {
                    self.state.lock().chunks.requeue_failed(entry);
                    report.errors += 1;
                }
            }
        }
        Ok(report)
    }

    fn pending_releases(&self) -> usize {
        self.state.lock().chunks.pending_len()
    }

    fn install_schedule_controller(&self, slot: ControllerSlot) {
        self.state.lock().controller = slot;
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, id: &str, acl: &Acl) -> Result<(), ScfsError> {
        let manifests = self.state.lock().registry.live_manifests(id);
        for root in manifests {
            let blob = BlobName::manifest(id, root);
            self.blobs
                .set_acl(&mut principal_ctx(ctx, &blob), &blob, acl)?;
        }
        Ok(())
    }
}

/// Single-cloud adapter: each blob is one object, under its
/// [`BlobName::key`], in one provider (the paper's AWS backend uses Amazon
/// S3).
pub struct SingleCloud(Arc<dyn ObjectStore>);

/// Single-cloud backend: the chunked storage engine over one provider.
pub type SingleCloudStorage = ChunkedStorage<SingleCloud>;

impl SingleCloudStorage {
    /// Creates a backend over one cloud.
    pub fn new(cloud: Arc<dyn ObjectStore>) -> Self {
        ChunkedStorage::over(SingleCloud(cloud))
    }
}

/// What a delete or an ACL change of one blob may meet without failing.
fn tolerated(result: Result<(), StorageError>) -> Result<(), StorageError> {
    match result {
        Err(StorageError::NotFound { .. }) | Err(StorageError::AccessDenied { .. }) => Ok(()),
        other => other,
    }
}

impl BlobStore for SingleCloud {
    const LABEL: &'static str = "AWS";
    const DURABILITY: DurabilityLevel = DurabilityLevel::SingleCloud;

    fn put(&self, ctx: &mut OpCtx<'_>, blob: &BlobName, data: &[u8]) -> Result<(), StorageError> {
        self.0.put(ctx, &blob.key(), data)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, blob: &BlobName) -> Result<Vec<u8>, StorageError> {
        let key = blob.key();
        let bytes = self.0.get(ctx, &key)?;
        // Verify the content against the anchor hash (step r3 of Figure 3).
        if &sha256(&bytes) != blob.hash() {
            return Err(StorageError::IntegrityViolation { key });
        }
        Ok(bytes)
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, blob: &BlobName) -> Result<(), StorageError> {
        // AccessDenied mirrors `set_acl`: a collaborator-written blob is
        // owned by its writer, and when the write-time ACL grant failed to
        // reach it, retrying a delete under this account could never succeed
        // — surrendering the blob to its owner beats a journal entry that
        // livelocks forever.
        tolerated(self.0.delete(ctx, &blob.key()))
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, blob: &BlobName, acl: &Acl) -> Result<(), StorageError> {
        // Versions written by other collaborators are owned by them; only
        // their writer can retag those objects, so skip them.
        tolerated(self.0.set_acl(ctx, &blob.key(), acl.clone()))
    }
}

/// Cloud-of-clouds adapter: each blob is an immutable DepSky-CA data unit,
/// addressed by its [`BlobName::base`] and [`BlobName::hash`].
pub struct CloudOfClouds(DepSkyClient);

/// Cloud-of-clouds backend: the chunked storage engine over DepSky.
pub type CloudOfCloudsStorage = ChunkedStorage<CloudOfClouds>;

impl CloudOfCloudsStorage {
    /// Creates a backend over a DepSky client.
    pub fn new(depsky: DepSkyClient) -> Self {
        ChunkedStorage::over(CloudOfClouds(depsky))
    }
}

/// Every blob, chunk or manifest, is its blocks alone: the anchored tuple
/// names the hash, and the pool's layout names the holders.
impl BlobStore for CloudOfClouds {
    const LABEL: &'static str = "CoC";
    const DURABILITY: DurabilityLevel = DurabilityLevel::CloudOfClouds;

    fn put(&self, ctx: &mut OpCtx<'_>, blob: &BlobName, data: &[u8]) -> Result<(), StorageError> {
        self.0.write_blob(ctx, &blob.base(), blob.hash(), data)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, blob: &BlobName) -> Result<Vec<u8>, StorageError> {
        self.0.read_blob(ctx, &blob.base(), blob.hash())
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, blob: &BlobName) -> Result<(), StorageError> {
        self.0.delete_blob(ctx, &blob.base(), blob.hash())
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, blob: &BlobName, acl: &Acl) -> Result<(), StorageError> {
        self.0.set_blob_acl(ctx, &blob.base(), blob.hash(), acl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkstore::KeyStyle;
    use crate::transfer::TransferOptions;
    use cloud_store::providers::ProviderSet;
    use cloud_store::sim_cloud::SimulatedCloud;
    use depsky::config::DepSkyConfig;
    use sim_core::fault::FaultPlan;
    use sim_core::time::{Clock, SimDuration, SimInstant};
    use std::collections::BTreeSet;

    const CHUNK: usize = 1024;
    /// Chunks of the smallest fixed-size map whose manifest no longer rides
    /// inline, i.e. whose version stores a manifest object.
    const OVER_BOUND: usize = 13;

    fn single() -> SingleCloudStorage {
        SingleCloudStorage::new(Arc::new(SimulatedCloud::test("s3")))
    }

    fn single_with_cloud() -> (SingleCloudStorage, Arc<SimulatedCloud>) {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        (SingleCloudStorage::new(cloud.clone()), cloud)
    }

    fn coc() -> CloudOfCloudsStorage {
        coc_with_clouds().0
    }

    fn coc_with_clouds() -> (CloudOfCloudsStorage, Vec<Arc<SimulatedCloud>>) {
        let sims: Vec<Arc<SimulatedCloud>> = ProviderSet::test_backend(4)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Arc::new(SimulatedCloud::new(p, i as u64)))
            .collect();
        let clouds = sims
            .iter()
            .map(|sim| sim.clone() as Arc<dyn ObjectStore>)
            .collect();
        let depsky = DepSkyClient::new(clouds, DepSkyConfig::scfs_default(), 1).unwrap();
        (CloudOfCloudsStorage::new(depsky), sims)
    }

    fn write(
        storage: &dyn FileStorage,
        ctx: &mut OpCtx<'_>,
        id: &str,
        data: &[u8],
        prev: Option<&ChunkMap>,
        is_new: bool,
    ) -> (WriteOutcome, ChunkMap) {
        let map = ChunkMap::build(data, CHUNK);
        let outcome = storage
            .write_version(
                ctx,
                id,
                data,
                &map,
                prev,
                is_new,
                None,
                &TransferOptions::default(),
            )
            .unwrap();
        (outcome, map)
    }

    /// Reads the version `map` lays out back from `id`'s chunks: the map a
    /// reader takes from the metadata tuple, the only copy of an inline one.
    fn read_back(
        storage: &dyn FileStorage,
        ctx: &mut OpCtx<'_>,
        id: &str,
        map: &ChunkMap,
    ) -> Result<Vec<u8>, ScfsError> {
        let mut data = Vec::with_capacity(map.file_len() as usize);
        for hash in map.chunks() {
            data.extend(storage.read_chunk(ctx, id, hash)?);
        }
        Ok(data)
    }

    fn replay(storage: &dyn FileStorage, ctx: &mut OpCtx<'_>) -> ReplayReport {
        storage
            .replay_release_journal(ctx, &JournalOpts::default())
            .unwrap()
    }

    fn run_round_trip(storage: &dyn FileStorage) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let v1 = vec![1u8; 3000];
        let mut v2 = v1.clone();
        v2.extend_from_slice(b"appended tail");
        let (o1, m1) = write(storage, &mut ctx, "file-1", &v1, None, true);
        let (o2, m2) = write(storage, &mut ctx, "file-1", &v2, Some(&m1), false);
        assert_ne!(o1.root_hash, o2.root_hash);
        assert_eq!(read_back(storage, &mut ctx, "file-1", &m1).unwrap(), v1);
        assert_eq!(read_back(storage, &mut ctx, "file-1", &m2).unwrap(), v2);
        // Both manifests ride inline: no object holds them, and the
        // instance that committed them has no other answer.
        match storage.read_manifest(&mut ctx, "file-1", &o2.root_hash) {
            Err(ScfsError::Storage(e)) => assert!(e.is_transient(), "{e}"),
            other => panic!("an inline manifest was answered: {other:?}"),
        }
    }

    #[test]
    fn single_cloud_round_trip() {
        run_round_trip(&single());
    }

    #[test]
    fn cloud_of_clouds_round_trip() {
        run_round_trip(&coc());
    }

    fn run_append_uploads_only_dirty_chunks(storage: &dyn FileStorage) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // 8 chunks of random-ish distinct content.
        let mut v1 = Vec::new();
        for i in 0..8u8 {
            v1.extend(std::iter::repeat_n(i, CHUNK));
        }
        let (o1, m1) = write(storage, &mut ctx, "f", &v1, None, true);
        assert_eq!(o1.chunks_uploaded, 8);
        // Append less than one chunk: exactly one new chunk moves.
        let mut v2 = v1.clone();
        v2.extend_from_slice(&[0xAA; 100]);
        let (o2, m2) = write(storage, &mut ctx, "f", &v2, Some(&m1), false);
        assert_eq!(o2.chunks_uploaded, 1);
        assert!(o2.bytes_uploaded < 2 * CHUNK as u64);
        assert_eq!(o2.dedup_cross_file, 0);
        // Rewriting identical content uploads no chunks at all.
        let (o3, _) = write(storage, &mut ctx, "f", &v2, Some(&m2), false);
        assert_eq!(o3.chunks_uploaded, 0);
        assert_eq!(o3.root_hash, o2.root_hash);
    }

    #[test]
    fn single_cloud_append_uploads_only_dirty_chunks() {
        run_append_uploads_only_dirty_chunks(&single());
    }

    #[test]
    fn cloud_of_clouds_append_uploads_only_dirty_chunks() {
        run_append_uploads_only_dirty_chunks(&coc());
    }

    /// Identical content under a second object, of another user, is that
    /// object's own: its four chunks upload once for it, under its id, and
    /// each file reads back from its own blobs. (The tests' names predate
    /// per-object chunks, when the second object uploaded nothing.)
    fn run_cross_file_dedup(storage: &dyn FileStorage, keys: &dyn Fn(&str) -> usize) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let mut data = Vec::new();
        for i in 0..4u8 {
            data.extend(std::iter::repeat_n(0xC0 | i, CHUNK));
        }
        let (o1, m1) = write(storage, &mut ctx, "alice-f1", &data, None, true);
        assert_eq!(o1.chunks_uploaded, 4);
        assert_eq!(o1.dedup_cross_file, 0);
        let mut bob_ctx = OpCtx::new(ctx.clock, "bob".into());
        let (o2, _) = write(storage, &mut bob_ctx, "bob-f1", &data, None, true);
        assert_eq!(o2.chunks_uploaded, 4, "the second object stores its own");
        assert_eq!(o2.dedup_cross_file, 0);
        assert_eq!(o2.root_hash, o1.root_hash);
        for id in ["alice-f1", "bob-f1"] {
            assert_eq!(keys(id), 4, "{id} has its four chunks");
        }
        // A rewrite of the same object still uploads nothing.
        let (o3, _) = write(storage, &mut bob_ctx, "alice-f1", &data, Some(&m1), false);
        assert_eq!(o3.chunks_uploaded, 0);
        for id in ["alice-f1", "bob-f1"] {
            assert_eq!(read_back(storage, &mut bob_ctx, id, &m1).unwrap(), data);
        }
    }

    #[test]
    fn single_cloud_cross_file_dedup_uploads_once() {
        let (storage, cloud) = single_with_cloud();
        let keys = |id: &str| cloud.stored_keys(&format!("scfs/{id}/chunks/")).len();
        run_cross_file_dedup(&storage, &keys);
    }

    #[test]
    fn cloud_of_clouds_cross_file_dedup_uploads_once() {
        let (storage, clouds) = coc_with_clouds();
        // Each chunk is its blocks, one per holder: count its units.
        let keys = |id: &str| {
            let keys = clouds
                .iter()
                .flat_map(|c| c.stored_keys(&format!("depsky/{id}.chunks|")));
            let units: BTreeSet<String> = keys
                .map(|k| k.split('/').nth(1).unwrap().to_string())
                .collect();
            units.len()
        };
        run_cross_file_dedup(&storage, &keys);
    }

    fn run_shared_chunk_survives_other_files_gc(storage: &dyn FileStorage) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // An inline version, then one that stores a manifest object.
        for (chunks, manifests) in [(2, 0), (OVER_BOUND, 1)] {
            let data = vec![0xE0 | chunks as u8; chunks * CHUNK];
            let (_, _) = write(storage, &mut ctx, "f1", &data, None, true);
            let (_, m2) = write(storage, &mut ctx, "f2", &data, None, true);
            // Deleting f1 reclaims its own chunk and manifest object, if it
            // stored one, and nothing of f2's identical content.
            storage.delete_all(&mut ctx, "f1").unwrap();
            let report = replay(storage, &mut ctx);
            assert_eq!(report.errors, 0);
            assert_eq!(report.deleted, 1 + manifests, "f1's one distinct chunk");
            assert_eq!(read_back(storage, &mut ctx, "f2", &m2).unwrap(), data);
            assert_eq!(storage.pending_releases(), 0);
        }
    }

    #[test]
    fn single_cloud_shared_chunk_survives_other_files_gc() {
        run_shared_chunk_survives_other_files_gc(&single());
    }

    #[test]
    fn cloud_of_clouds_shared_chunk_survives_other_files_gc() {
        run_shared_chunk_survives_other_files_gc(&coc());
    }

    #[test]
    fn stale_prev_map_does_not_skip_gc_reclaimed_chunks() {
        // A writer whose prev map predates a GC cycle must not trust it:
        // chunks that are clean relative to prev may already be reclaimed,
        // and skipping them would commit an unreadable version.
        let storage = single();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let mut data = vec![0u8; 2 * CHUNK];
        data[..CHUNK].fill(0xA1); // chunk 0, unique to v1's lineage start
        let (_, m1) = write(&storage, &mut ctx, "f", &data, None, true);
        // Newer versions replace chunk 0, so the GC reclaims it.
        let mut prev = m1.clone();
        for i in 1..4u8 {
            data[..CHUNK].fill(i);
            let (_, m) = write(&storage, &mut ctx, "f", &data, Some(&prev), false);
            prev = m;
        }
        assert!(storage.delete_old_versions(&mut ctx, "f", 1).unwrap() > 0);
        assert!(replay(&storage, &mut ctx).deleted > 0);
        // Rewrite the v1 content with the stale m1 as prev: every chunk of
        // the new version must be readable, even those m1 claims exist.
        data[..CHUNK].fill(0xA1);
        let (_, m) = write(&storage, &mut ctx, "f", &data, Some(&m1), false);
        assert_eq!(read_back(&storage, &mut ctx, "f", &m).unwrap(), data);
    }

    /// A writer whose `prev` names a chunk the store no longer holds, and
    /// whose buffer has only zeros where that chunk was — an open handle's
    /// hole — must get an integrity error before anything is PUT: the zeros
    /// must never be stored under the chunk's name.
    fn run_a_hole_is_never_uploaded(storage: &dyn FileStorage, puts: &dyn Fn() -> u64) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let mut data = vec![0u8; 2 * CHUNK];
        data[..CHUNK].fill(0xA1);
        data[CHUNK..].fill(0xB2);
        let (_, m1) = write(storage, &mut ctx, "f", &data, None, true);
        // A newer version replaces chunk 0, and the collector reclaims it.
        data[..CHUNK].fill(0xC3);
        let (_, m2) = write(storage, &mut ctx, "f", &data, Some(&m1), false);
        assert_eq!(storage.delete_old_versions(&mut ctx, "f", 1).unwrap(), 1);
        assert!(replay(storage, &mut ctx).deleted > 0);

        let (before, pending) = (puts(), storage.pending_releases());
        let holes = vec![0u8; 2 * CHUNK];
        let result = storage.write_version(
            &mut ctx,
            "f",
            &holes,
            &m1,
            Some(&m1),
            false,
            None,
            &TransferOptions::default(),
        );
        let key = BlobName::chunk("f", m1.chunks()[0]).key();
        assert!(
            matches!(
                &result,
                Err(ScfsError::Storage(StorageError::IntegrityViolation { key: k })) if *k == key
            ),
            "{result:?}"
        );
        assert_eq!(puts(), before, "nothing was PUT");
        assert_eq!(storage.pending_releases(), pending, "nothing was journaled");
        // The store is as it was: the live version still reads back.
        assert_eq!(read_back(storage, &mut ctx, "f", &m2).unwrap(), data);
    }

    #[test]
    fn single_cloud_never_uploads_a_hole() {
        let (storage, cloud) = single_with_cloud();
        run_a_hole_is_never_uploaded(&storage, &|| cloud.metrics().snapshot().puts);
    }

    #[test]
    fn cloud_of_clouds_never_uploads_a_hole() {
        let (storage, clouds) = coc_with_clouds();
        let puts = || clouds.iter().map(|c| c.metrics().snapshot().puts).sum();
        run_a_hole_is_never_uploaded(&storage, &puts);
    }

    #[test]
    fn identical_chunks_are_deduplicated_within_a_version() {
        let storage = single();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // Four identical chunks: one upload.
        let data = vec![5u8; 4 * CHUNK];
        let (o, _) = write(&storage, &mut ctx, "f", &data, None, true);
        assert_eq!(o.chunks_uploaded, 1);
    }

    #[test]
    fn empty_files_round_trip() {
        for storage in [&single() as &dyn FileStorage, &coc() as &dyn FileStorage] {
            let mut clock = Clock::new();
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            let (o, m) = write(storage, &mut ctx, "f", &[], None, true);
            assert_eq!(o.chunks_uploaded, 0);
            assert_eq!(m.chunk_count(), 0);
            assert_eq!(
                read_back(storage, &mut ctx, "f", &m).unwrap(),
                Vec::<u8>::new()
            );
        }
    }

    #[test]
    fn labels_identify_backends() {
        assert_eq!(single().label(), "AWS");
        assert_eq!(coc().label(), "CoC");
    }

    fn run_gc_reclaims_per_chunk(storage: &dyn FileStorage) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let mut maps: Vec<ChunkMap> = Vec::new();
        let mut data = vec![0u8; 2 * CHUNK];
        for i in 0..5u8 {
            // Each version rewrites the last chunk only; chunk 0 is shared by
            // all versions.
            data[2 * CHUNK - 1] = i;
            let prev = maps.last().cloned();
            let (_, m) = write(storage, &mut ctx, "f", &data, prev.as_ref(), i == 0);
            maps.push(m);
        }
        let removed = storage.delete_old_versions(&mut ctx, "f", 2).unwrap();
        assert_eq!(removed, 3);
        let report = replay(storage, &mut ctx);
        assert_eq!(report.errors, 0);
        assert_eq!(storage.pending_releases(), 0);
        // Newest versions survive — including the shared first chunk.
        assert!(read_back(storage, &mut ctx, "f", &maps[4]).is_ok());
        assert!(read_back(storage, &mut ctx, "f", &maps[3]).is_ok());
        // Oldest versions are gone: each last chunk of its own was reclaimed.
        // (Version 0 is all zeros, its last chunk the shared first one: its
        // content is still live.)
        assert!(read_back(storage, &mut ctx, "f", &maps[1]).is_err());
        assert!(read_back(storage, &mut ctx, "f", &maps[2]).is_err());
        assert_eq!(storage.delete_old_versions(&mut ctx, "f", 2).unwrap(), 0);
    }

    #[test]
    fn single_cloud_gc_reclaims_per_chunk() {
        run_gc_reclaims_per_chunk(&single());
    }

    #[test]
    fn cloud_of_clouds_gc_reclaims_per_chunk() {
        run_gc_reclaims_per_chunk(&coc());
    }

    #[test]
    fn single_cloud_delete_all() {
        let storage = single();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let (_, m) = write(&storage, &mut ctx, "f", b"data", None, true);
        assert!(read_back(&storage, &mut ctx, "f", &m).is_ok());
        storage.delete_all(&mut ctx, "f").unwrap();
        assert!(replay(&storage, &mut ctx).deleted > 0);
        assert!(read_back(&storage, &mut ctx, "f", &m).is_err());
    }

    #[test]
    fn failed_deletes_stay_journaled_and_a_retry_reclaims_everything() {
        // The orphan-leak regression: a delete fault mid-reclamation must
        // leave retryable journal entries, and the next cycle must reclaim
        // every blob — the old `?`-aborting collector lost them forever.
        let (storage, cloud) = single_with_cloud();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // Over the inline bound, so manifest deletes are among the faulted.
        let mut data = vec![0u8; OVER_BOUND * CHUNK];
        let mut prev: Option<ChunkMap> = None;
        for i in 0..4u8 {
            data.fill(0x10 | i);
            let (_, m) = write(&storage, &mut ctx, "f", &data, prev.as_ref(), i == 0);
            prev = Some(m);
        }
        assert_eq!(storage.delete_old_versions(&mut ctx, "f", 1).unwrap(), 3);
        let pending_before = storage.pending_releases();
        assert!(pending_before > 0);

        // Every delete during the outage fails; the entries stay pending.
        cloud.set_fault_plan(
            FaultPlan::outage(
                SimInstant::EPOCH,
                ctx.clock.now() + SimDuration::from_secs(60),
            ),
            7,
        );
        let faulty = replay(&storage, &mut ctx);
        assert_eq!(faulty.deleted, 0);
        assert_eq!(faulty.errors as usize, pending_before);
        assert_eq!(storage.pending_releases(), pending_before, "nothing lost");
        assert!(
            storage
                .blob_audit()
                .orphans(KeyStyle::Aws, cloud.stored_keys("scfs/"))
                .is_empty(),
            "pending entries keep every blob reachable"
        );

        // The outage ends; the retry pass reclaims every orphan.
        ctx.clock.advance(SimDuration::from_secs(120));
        let healed = replay(&storage, &mut ctx);
        assert_eq!(healed.errors, 0);
        assert_eq!(healed.retried as usize, pending_before);
        assert!(healed.reclaimed_after_retry > 0);
        assert_eq!(storage.pending_releases(), 0);
        assert!(
            storage
                .blob_audit()
                .orphans(KeyStyle::Aws, cloud.stored_keys("scfs/"))
                .is_empty(),
            "zero orphans after the retry cycle"
        );
    }

    /// A cloud whose manifest puts fail while `failing` is set — for
    /// testing that a write aborted after its chunk uploads leaves no
    /// orphans.
    struct ManifestPutFails {
        inner: Arc<SimulatedCloud>,
        failing: std::sync::atomic::AtomicBool,
    }

    impl ManifestPutFails {
        fn new(inner: Arc<SimulatedCloud>) -> Self {
            ManifestPutFails {
                inner,
                failing: std::sync::atomic::AtomicBool::new(false),
            }
        }

        fn set_failing(&self, on: bool) {
            self.failing.store(on, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl ObjectStore for ManifestPutFails {
        fn id(&self) -> &str {
            self.inner.id()
        }

        fn profile(&self) -> &cloud_store::providers::ProviderProfile {
            self.inner.profile()
        }

        fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
            if key.contains("/manifest/") && self.failing.load(std::sync::atomic::Ordering::SeqCst)
            {
                return Err(StorageError::unavailable("injected manifest-put fault"));
            }
            self.inner.put(ctx, key, data)
        }

        fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
            self.inner.get(ctx, key)
        }

        fn head(
            &self,
            ctx: &mut OpCtx<'_>,
            key: &str,
        ) -> Result<cloud_store::types::ObjectMeta, StorageError> {
            self.inner.head(ctx, key)
        }

        fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError> {
            self.inner.delete(ctx, key)
        }

        fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, StorageError> {
            self.inner.list(ctx, prefix)
        }

        fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), StorageError> {
            self.inner.set_acl(ctx, key, acl)
        }

        fn get_acl(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Acl, StorageError> {
            self.inner.get_acl(ctx, key)
        }
    }

    #[test]
    fn failed_write_version_leaves_no_orphaned_chunks() {
        let sim = Arc::new(SimulatedCloud::test("s3"));
        let faulty = Arc::new(ManifestPutFails::new(sim.clone()));
        let storage = SingleCloudStorage::new(faulty.clone());
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let data = vec![0x77u8; OVER_BOUND * CHUNK];
        let map = ChunkMap::build(&data, CHUNK);

        // The chunks upload, then the manifest put fails: the write errors
        // out after blobs already reached the cloud.
        faulty.set_failing(true);
        assert!(storage
            .write_version(
                &mut ctx,
                "f",
                &data,
                &map,
                None,
                true,
                None,
                &TransferOptions::default(),
            )
            .is_err());
        assert!(!sim.stored_keys("scfs/f/chunks/").is_empty());
        // The journal entries the failure left keep the partial blobs
        // reachable…
        assert!(storage
            .blob_audit()
            .orphans(KeyStyle::Aws, sim.stored_keys("scfs/"))
            .is_empty());
        // …and replay reclaims them (the version never committed).
        faulty.set_failing(false);
        let report = replay(&storage, &mut ctx);
        assert_eq!(report.errors, 0);
        assert!(
            sim.stored_keys("scfs/").is_empty(),
            "partial write reclaimed"
        );
        assert_eq!(storage.pending_releases(), 0);

        // The file is still writable afterwards, end to end.
        let (o, _) = write(&storage, &mut ctx, "f", &data, None, true);
        assert_eq!(
            storage
                .read_version(&mut ctx, "f", &o.root_hash, &TransferOptions::default())
                .unwrap(),
            data
        );
    }

    #[test]
    fn a_failed_rewrite_of_a_retained_root_is_cancelled_at_replay() {
        // Content a retained version already stores uploads no chunk, so a
        // rewrite whose manifest PUT fails journals that version's manifest
        // alone: replay must find it named and cancel the entry, not delete
        // the blob.
        let sim = Arc::new(SimulatedCloud::test("s3"));
        let faulty = Arc::new(ManifestPutFails::new(sim.clone()));
        let storage = SingleCloudStorage::new(faulty.clone());
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let data: Vec<u8> = (0..OVER_BOUND as u8).flat_map(|t| [t; CHUNK]).collect();
        let (kept, map) = write(&storage, &mut ctx, "f", &data, None, true);
        faulty.set_failing(true);
        let opts = TransferOptions::default();
        let failed = storage.write_version(&mut ctx, "f", &data, &map, None, false, None, &opts);
        assert!(failed.is_err());
        faulty.set_failing(false);
        assert_eq!(storage.pending_releases(), 1);
        let report = replay(&storage, &mut ctx);
        assert_eq!((report.deleted, report.cancelled), (0, 1));
        assert_eq!(storage.pending_releases(), 0);
        let read = storage.read_version(&mut ctx, "f", &kept.root_hash, &opts);
        assert_eq!(read.unwrap(), data);
    }

    #[test]
    fn rewriting_a_pruned_root_cancels_its_pending_manifest_release() {
        let (storage, cloud) = single_with_cloud();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let v1 = vec![1u8; OVER_BOUND * CHUNK];
        let v2 = vec![2u8; OVER_BOUND * CHUNK];
        let (o1, m1) = write(&storage, &mut ctx, "f", &v1, None, true);
        let (_, m2) = write(&storage, &mut ctx, "f", &v2, Some(&m1), false);
        // Prune v1 but fail its deletes: the release stays pending.
        cloud.set_fault_plan(
            FaultPlan::outage(
                SimInstant::EPOCH,
                ctx.clock.now() + SimDuration::from_secs(60),
            ),
            3,
        );
        storage.delete_old_versions(&mut ctx, "f", 1).unwrap();
        assert!(replay(&storage, &mut ctx).errors > 0);
        ctx.clock.advance(SimDuration::from_secs(120));
        // v1's exact content comes back before the retry runs.
        let (o3, _) = write(&storage, &mut ctx, "f", &v1, Some(&m2), false);
        assert_eq!(o3.root_hash, o1.root_hash);
        // The retry must not destroy the recommitted manifest or chunk.
        let report = replay(&storage, &mut ctx);
        assert_eq!(report.errors, 0);
        assert_eq!(
            storage
                .read_version(&mut ctx, "f", &o3.root_hash, &TransferOptions::default())
                .unwrap(),
            v1
        );
    }

    #[test]
    fn a_prune_journals_manifests_then_chunks_version_by_version() {
        // The journal a prune leaves, as its targets in order: the manifest
        // objects it frees, then the chunks whose count reaches zero, version
        // by version; an inline version frees no manifest, and a root a kept
        // version still stores frees nothing. Replay walks this order, so it
        // decides which delete a fault hits: the literal must not move.
        let storage = single();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let fill = |tags: &[u8]| -> Vec<u8> { tags.iter().flat_map(|t| [*t; CHUNK]).collect() };
        let chunk = |tag: u8| BlobName::chunk("f", sha256(&[tag; CHUNK]));
        let versions = [
            fill(&[0xA0, 0xA1]),
            fill(&[[0xA0].as_slice(), &[0xB0; OVER_BOUND - 1]].concat()),
            fill(&[0xB1; OVER_BOUND]),
            fill(&[0xC0; OVER_BOUND]),
            fill(&[0xC0; OVER_BOUND]),
        ];
        let mut roots = Vec::new();
        for data in &versions {
            let (outcome, _) = write(&storage, &mut ctx, "f", data, None, roots.is_empty());
            roots.push(outcome.root_hash);
        }
        assert_eq!(storage.delete_old_versions(&mut ctx, "f", 1).unwrap(), 4);
        let journal: Vec<BlobName> = storage
            .state
            .lock()
            .chunks
            .pending_entries()
            .map(|entry| entry.target.clone())
            .collect();
        assert_eq!(
            journal,
            [
                BlobName::manifest("f", roots[1]),
                BlobName::manifest("f", roots[2]),
                chunk(0xA1),
                chunk(0xA0),
                chunk(0xB0),
                chunk(0xB1),
            ]
        );
        let report = replay(&storage, &mut ctx);
        assert_eq!((report.deleted, report.cancelled, report.errors), (6, 0, 0));
        let kept = storage.read_version(&mut ctx, "f", &roots[4], &TransferOptions::default());
        assert_eq!(kept.unwrap(), versions[4]);
    }

    #[test]
    fn missing_version_is_transient_not_found() {
        let storage = single();
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let missing = sha256(b"never written");
        match storage.read_manifest(&mut ctx, "f", &missing) {
            Err(ScfsError::Storage(e)) => assert!(e.is_transient()),
            other => panic!("expected transient storage error, got {other:?}"),
        }
    }
}
