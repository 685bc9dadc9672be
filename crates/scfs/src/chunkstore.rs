//! The global, refcounted chunk store: cross-file dedup and leak-free GC —
//! and [`BlobName`], the one place that says what SCFS calls what it stores
//! in a cloud.
//!
//! Everything SCFS sends to a cloud is a write-once, content-addressed blob
//! of one of two kinds, and [`BlobName`] is its name: how it is spelled on
//! the single cloud, which DepSky unit it is, which principal touches it,
//! and how a raw cloud key parses back. The release journal
//! ([`JournalEntry`]), the orphan audit ([`BlobAudit`]) and both storage
//! adapters of [`crate::backend`] speak it and spell nothing themselves.
//!
//! [`ChunkStore`] is the liveness authority for the first kind, CFS-style
//! (global chunk addressing, see PAPERS: *CFS: A Distributed File System for
//! Large Scale Container Platforms*):
//!
//! * **One chunk namespace for everything.** Chunks live under a single
//!   content-addressed namespace ([`BlobName::Chunk`]), owned by a dedicated
//!   chunk-store principal ([`chunk_store_account`]). A chunk is uploaded
//!   only if its **reference count** is zero — identical content across
//!   versions, files *and users* moves once. Manifests stay per-object
//!   ([`BlobName::Manifest`]): they are the per-file commit point the
//!   consistency anchor validates, and they carry the user-facing ACL — as
//!   an object of their own only when they are too large to ride in the
//!   metadata tuple ([`crate::types::manifest_rides_inline`]); a version
//!   whose manifest rides inline is chunks and nothing else to this module.
//! * **Reference counting instead of per-file liveness scans.** Every
//!   committed version holds one reference on each distinct chunk it uses;
//!   pruning a version releases exactly those references. A chunk is
//!   reclaimable iff its count is zero, no matter how many files share it.
//! * **A two-phase release journal makes reclamation idempotent.** Dropping
//!   a version first *appends* "intent to release" entries (phase one: the
//!   registry may forget the version, the journal has not), and only then
//!   are zero-count blobs physically deleted and the entries marked applied
//!   (phase two). A failed delete leaves its entry pending: the next replay
//!   retries it instead of leaking the blob. A chunk re-referenced before
//!   its pending delete runs is *cancelled*, never deleted.
//!
//! Writes are journaled too: before uploading, `write_version` appends
//! *provisional* intents for the chunks (and the manifest object, if the
//! version stores one) it is about to store, and cancels them once the
//! version's references are committed. A write that fails mid-flight —
//! after some chunk uploads, or on the manifest put — therefore leaves its
//! partial blobs covered by pending entries, and the next replay reclaims
//! them instead of orphaning them. The journal never holds a
//! [`BlobName::Manifest`] for a manifest that rides inline: not
//! provisionally, not when its version is pruned — there is no object, and
//! a delete of one would be a request (a round of them on the
//! cloud-of-clouds) for nothing.
//! Manifest-only copies ([`crate::backend::FileStorage::copy_version`])
//! follow the same protocol: the destination takes one reference per
//! distinct source chunk and commits at most a manifest — the agent's
//! `copy_file` moves zero chunks.
//!
//! Journal replay is driven by the agent's garbage collector, which since
//! the completion-token redesign runs as a job on the
//! [`sim_core::background::BackgroundScheduler`]'s GC lane: cycles
//! serialize with one another (the single collector, below) but overlap
//! with uploads and prefetches in virtual time, and each cycle's
//! phase-one releases and phase-two replay share one forked clock.
//!
//! ## Shared ownership
//!
//! Chunk blobs are owned by the chunk-store principal rather than the user
//! who happened to upload them first — the shared-ownership compromise
//! discussed in *Commune: Shared Ownership in an Agnostic Cloud* (PAPERS).
//! Access control remains with the per-object manifests: a reader can only
//! learn a chunk's hash from a manifest its ACL lets it read, so the hash
//! acts as a read capability on the shared namespace. The trade-off (a
//! revoked reader that cached a manifest can still fetch its chunks until
//! they are garbage collected) is inherent to content-addressed dedup.
//!
//! ## Single-collector assumption
//!
//! Refcounts and the journal are state of **one backend instance** — the
//! deployment's single collector. Every agent sharing a cloud must mount
//! through the same backend instance (as `workloads::setup::Deployment` and
//! every experiment harness do); an independent instance pointed at the
//! same bucket must not run GC, because it cannot see the references other
//! instances hold, and deleting a global chunk it believes is dead could
//! orphan their files. Distributing the refcount state (a cloud-resident
//! refcount journal, CFS-style) is the natural next step and is tracked in
//! the ROADMAP.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cloud_store::types::AccountId;
use depsky::register::DepSkyClient;
use scfs_crypto::{hash_from_hex, to_hex, ContentHash};

use crate::invariant::InvariantViolation;

/// Account name of the shared chunk-store principal that owns every blob in
/// the global chunk namespace.
pub const CHUNK_STORE_PRINCIPAL: &str = "scfs-chunkstore";

/// The cloud account under which all global chunk blobs are written, read
/// and deleted.
pub fn chunk_store_account() -> AccountId {
    AccountId::new(CHUNK_STORE_PRINCIPAL)
}

/// The name of one write-once blob SCFS stores in a cloud — all it ever
/// stores there. This type alone knows how a blob is spelled on either
/// backend and how a raw cloud key parses back; the release journal, the
/// orphan audit and both storage adapters speak it.
///
/// | blob | single-cloud key | DepSky unit (`base\|hash`) | principal | deleted by |
/// |---|---|---|---|---|
/// | chunk | `scfs/chunks/{hex}` | `chunks\|{hex}` | [`chunk_store_account`] | journal replay, once its refcount is 0 |
/// | manifest | `scfs/{id}/manifest/{hex}` | `{id}\|{hex}` | the calling user | journal replay, once no retained version of `id` stores the root |
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlobName {
    /// A chunk in the global namespace, shared by every file and user and
    /// addressed by content hash alone.
    Chunk(ContentHash),
    /// The chunk-map manifest of one version of an object. Only a version
    /// whose manifest does not ride in the metadata tuple has one.
    Manifest {
        /// Storage id of the object the manifest belongs to.
        id: String,
        /// Root hash the manifest is stored under.
        root: ContentHash,
    },
}

/// Prefix of every key SCFS stores on a single cloud.
const KEY_SPACE: &str = "scfs/";
/// Where the global chunks live under [`KEY_SPACE`]; also the DepSky base
/// of their units. Object ids never collide with it (they are `{user}-f{n}`).
const CHUNKS: &str = "chunks";
/// What separates an object id from a manifest's root hash in a key.
const MANIFEST: &str = "/manifest/";

impl BlobName {
    /// The manifest of `id` stored under `root`.
    pub fn manifest(id: &str, root: ContentHash) -> Self {
        BlobName::Manifest {
            id: id.to_string(),
            root,
        }
    }

    /// The content hash the blob is addressed by and verified against.
    pub fn hash(&self) -> &ContentHash {
        match self {
            BlobName::Chunk(hash) | BlobName::Manifest { root: hash, .. } => hash,
        }
    }

    /// The base of the blob's DepSky unit; with [`BlobName::hash`], its
    /// address on the cloud-of-clouds.
    pub fn base(&self) -> &str {
        match self {
            BlobName::Chunk(_) => CHUNKS,
            BlobName::Manifest { id, .. } => id,
        }
    }

    /// The blob's key on a single cloud.
    pub fn key(&self) -> String {
        let hex = to_hex(self.hash());
        match self {
            BlobName::Chunk(_) => format!("{KEY_SPACE}{CHUNKS}/{hex}"),
            BlobName::Manifest { id, .. } => format!("{KEY_SPACE}{id}{MANIFEST}{hex}"),
        }
    }

    /// The account every request for this blob is made under. Chunks belong
    /// to the shared global namespace and are written, read and deleted
    /// under the chunk-store principal, never the calling user (whose right
    /// to a chunk was established by reading a manifest its ACL admits it
    /// to — the hash is the capability); manifests are the caller's own.
    pub fn principal(&self, caller: &AccountId) -> AccountId {
        match self {
            BlobName::Chunk(_) => chunk_store_account(),
            BlobName::Manifest { .. } => caller.clone(),
        }
    }

    /// The blob a raw cloud key of `style` belongs to — for a single-cloud
    /// key the inverse of [`BlobName::key`], for a DepSky one the blob whose
    /// unit the object is part of. `None` for a key that spells no blob.
    pub fn parse(style: KeyStyle, key: &str) -> Option<BlobName> {
        match style {
            KeyStyle::Aws => {
                let rest = key.strip_prefix(KEY_SPACE)?;
                match rest.strip_prefix(CHUNKS).and_then(|r| r.strip_prefix('/')) {
                    Some(hex) => hash_from_hex(hex).map(BlobName::Chunk),
                    None => {
                        let (id, hex) = rest.split_once(MANIFEST)?;
                        Some(BlobName::manifest(id, hash_from_hex(hex)?))
                    }
                }
            }
            KeyStyle::DepSky => {
                let (base, hash) = DepSkyClient::blob_of_key(key)?;
                Some(match base {
                    CHUNKS => BlobName::Chunk(hash),
                    id => BlobName::manifest(id, hash),
                })
            }
        }
    }
}

/// One entry of the release journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotonic sequence number (append order).
    pub seq: u64,
    /// The blob this entry intends to release.
    pub target: BlobName,
    /// Failed physical-delete attempts so far; an entry with `attempts > 0`
    /// being attempted again is a *retry* of a previously leaked blob.
    pub attempts: u32,
}

/// Options of one journal replay pass: there are none. The type stays
/// because `FileStorage::replay_release_journal`'s signature names it, and
/// goes with the Benchmark-v2 item that un-pins that signature (ROADMAP).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalOpts {}

/// Accounting of one journal replay pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Pending entries attempted this pass.
    pub attempted: u64,
    /// Blobs physically deleted this pass.
    pub deleted: u64,
    /// Entries applied without a delete (the chunk was re-referenced while
    /// the release was pending).
    pub cancelled: u64,
    /// Attempted entries that had already failed at least once — each one is
    /// a blob that the old `?`-aborting collector would have leaked forever.
    pub retried: u64,
    /// Deletions that succeeded on a retry: orphans reclaimed.
    pub reclaimed_after_retry: u64,
    /// Delete attempts that failed this pass; their entries stay pending.
    pub errors: u64,
}

/// The refcounted global chunk store shared by every agent mounting through
/// one backend instance.
#[derive(Debug, Default)]
pub struct ChunkStore {
    /// Live references per chunk: one per (committed version, distinct
    /// chunk) pair. Absent or zero means reclaimable. Ordered so snapshots
    /// ([`ChunkStore::reachable_chunks`]) iterate deterministically.
    refcounts: BTreeMap<ContentHash, u64>,
    /// Release intents not yet applied, oldest first.
    pending: VecDeque<JournalEntry>,
    next_seq: u64,
    /// Times a release dropped a reference that was not held. The counts
    /// themselves saturate at zero (an underflow must not corrupt
    /// neighbouring chunks' counts), so this counter is the only trace a
    /// double-release leaves; [`ChunkStore::check_invariants`] reports it.
    underflows: u64,
}

impl ChunkStore {
    /// Whether the global namespace holds a live (referenced) copy of `hash`.
    pub fn is_stored(&self, hash: &ContentHash) -> bool {
        self.refcounts.get(hash).is_some_and(|rc| *rc > 0)
    }

    /// Current reference count of `hash` (0 if unknown).
    pub fn refcount(&self, hash: &ContentHash) -> u64 {
        self.refcounts.get(hash).copied().unwrap_or(0)
    }

    /// Number of pending release intents.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending release intents, oldest first.
    pub fn pending_entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.pending.iter()
    }

    /// Takes one reference on each chunk of a newly committed version.
    /// `chunks` must be the version's *distinct* chunk set — the exact set a
    /// later [`ChunkStore::release_version`] of the same version passes back.
    pub fn retain_version(&mut self, chunks: &BTreeSet<ContentHash>) {
        for chunk in chunks {
            *self.refcounts.entry(*chunk).or_insert(0) += 1;
        }
    }

    /// Phase one of releasing a dropped version: drops the version's
    /// references and appends an intent entry for each chunk whose count
    /// thereby reached zero (a chunk other versions still hold needs no
    /// entry — it could only ever be cancelled at replay). The physical
    /// deletes happen in replay (phase two), so a crash or delete failure
    /// between the phases leaves retryable journal entries, never orphans.
    pub fn release_version(&mut self, chunks: impl IntoIterator<Item = ContentHash>) {
        for chunk in chunks {
            let rc = self.refcounts.entry(chunk).or_insert(0);
            if *rc == 0 {
                self.underflows += 1;
            }
            *rc = rc.saturating_sub(1);
            if *rc == 0 {
                self.append(BlobName::Chunk(chunk));
            }
        }
    }

    /// Journals intents for chunks a write is *about to upload*: if the
    /// write fails before it commits its references, replay finds the
    /// uploaded blobs at refcount zero and reclaims them instead of
    /// orphaning them. A write that commits cancels these entries via
    /// [`ChunkStore::cancel_chunk_releases`] (and a surviving entry would be
    /// cancelled at replay anyway, since the committed chunks hold
    /// references).
    pub fn journal_provisional_uploads(&mut self, chunks: impl IntoIterator<Item = ContentHash>) {
        for chunk in chunks {
            self.append(BlobName::Chunk(chunk));
        }
    }

    /// Appends the release intent for a manifest no retained version of `id`
    /// stores its root under. Also used provisionally before a manifest
    /// upload — replay checks registry liveness before deleting, so a
    /// committed manifest is never destroyed by its own provisional entry.
    pub fn release_manifest(&mut self, id: &str, root: ContentHash) {
        self.append(BlobName::manifest(id, root));
    }

    /// Cancels any pending release of `(id, root)` — called when a version
    /// with that manifest is (re)committed, so a pending delete from an
    /// earlier prune cannot destroy the recreated blob.
    pub fn cancel_manifest_release(&mut self, id: &str, root: &ContentHash) {
        let manifest = BlobName::manifest(id, *root);
        self.cancel_where(|target| *target == manifest);
    }

    /// Cancels every pending chunk release whose hash is in `live` — called
    /// when a version commits, clearing its provisional upload intents and
    /// any stale entry for a chunk the commit just re-referenced.
    pub fn cancel_chunk_releases(&mut self, live: &BTreeSet<ContentHash>) {
        self.cancel_where(|target| matches!(target, BlobName::Chunk(hash) if live.contains(hash)));
    }

    /// Drops the pending entries matching `cancelled`: commit-time
    /// cancellations are pure bookkeeping.
    fn cancel_where(&mut self, cancelled: impl Fn(&BlobName) -> bool) {
        self.pending.retain(|entry| !cancelled(&entry.target));
    }

    fn append(&mut self, target: BlobName) {
        self.pending.push_back(JournalEntry {
            seq: self.next_seq,
            target,
            attempts: 0,
        });
        self.next_seq += 1;
    }

    /// Snapshot of the pending entries, oldest first.
    pub fn pending_snapshot(&self) -> Vec<JournalEntry> {
        self.pending.iter().cloned().collect()
    }

    /// Decides what entry `seq` requires *now*: `Some(target)` if the blob
    /// must be deleted, `None` if the entry was applied without a delete
    /// (the chunk has been re-referenced in the meantime).
    pub fn decide(&mut self, seq: u64) -> Option<BlobName> {
        let entry = self.pending.iter().find(|e| e.seq == seq)?;
        match &entry.target {
            BlobName::Chunk(hash) if self.refcount(hash) > 0 => {
                self.mark_applied(seq);
                None
            }
            target => Some(target.clone()),
        }
    }

    /// Marks entry `seq` applied (the blob is gone, or provably not needed).
    pub fn mark_applied(&mut self, seq: u64) {
        let Some(pos) = self.pending.iter().position(|e| e.seq == seq) else {
            return;
        };
        if let Some(entry) = self.pending.remove(pos) {
            if let BlobName::Chunk(hash) = &entry.target {
                if self.refcount(hash) == 0 {
                    self.refcounts.remove(hash);
                }
            }
        }
    }

    /// Records a failed delete attempt of entry `seq`: the entry stays
    /// pending but rotates to the back of the queue, so a persistently
    /// failing blob is not what every pass attempts first.
    pub fn mark_failed(&mut self, seq: u64) {
        let Some(pos) = self.pending.iter().position(|e| e.seq == seq) else {
            return;
        };
        if let Some(mut entry) = self.pending.remove(pos) {
            entry.attempts += 1;
            self.pending.push_back(entry);
        }
    }

    /// The blobs this store accounts for: every chunk with a live reference
    /// and every blob with a pending release. With the manifests of the
    /// retained versions, exactly the blobs that may legitimately exist in
    /// the cloud.
    pub fn reachable_blobs(&self) -> BTreeSet<BlobName> {
        let live = self.refcounts.iter().filter(|(_, rc)| **rc > 0);
        let mut set: BTreeSet<BlobName> = live.map(|(h, _)| BlobName::Chunk(*h)).collect();
        set.extend(self.pending.iter().map(|entry| entry.target.clone()));
        set
    }

    /// Appends any violated chunkstore invariants to `out`: refcounts never
    /// went negative (no release without a matching retain), and journal
    /// sequence numbers are unique and below the allocation cursor.
    pub fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        if self.underflows > 0 {
            out.push(InvariantViolation::new(
                "chunkstore.refcount-underflow",
                format!("{} release(s) without a matching retain", self.underflows),
            ));
        }
        let mut seen = BTreeSet::new();
        for entry in &self.pending {
            if entry.seq >= self.next_seq {
                out.push(InvariantViolation::new(
                    "chunkstore.journal-seq-range",
                    format!("entry seq {} >= next_seq {}", entry.seq, self.next_seq),
                ));
            }
            if !seen.insert(entry.seq) {
                out.push(InvariantViolation::new(
                    "chunkstore.journal-seq-duplicate",
                    format!("journal seq {} appears twice", entry.seq),
                ));
            }
        }
    }
}

/// The set of blobs that may legitimately exist in the cloud(s) for one
/// backend instance: every chunk reachable from a live reference or pending
/// journal entry, and every manifest a retained version or pending entry
/// points at. Anything else under the SCFS key space is an orphan — the
/// leak class the release journal exists to prevent.
///
/// Built by the storages' `blob_audit`; tests feed it the raw key listing of
/// a `SimulatedCloud` (`stored_keys`) and assert [`BlobAudit::orphans`] is
/// empty.
#[derive(Debug, Clone)]
pub struct BlobAudit {
    reachable: BTreeSet<BlobName>,
}

/// How the audited cloud keys encode SCFS blobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyStyle {
    /// Single-cloud keys, [`BlobName::key`].
    Aws,
    /// DepSky keys: the objects of the unit [`BlobName::base`] and
    /// [`BlobName::hash`] address.
    DepSky,
}

impl KeyStyle {
    /// The prefix of every key SCFS stores in a cloud under this style.
    fn key_space(self) -> &'static str {
        match self {
            KeyStyle::Aws => KEY_SPACE,
            KeyStyle::DepSky => depsky::register::KEY_SPACE,
        }
    }
}

impl BlobAudit {
    /// Builds an audit from the blobs a backend can account for.
    pub fn new(reachable: BTreeSet<BlobName>) -> Self {
        BlobAudit { reachable }
    }

    /// Whether a stored cloud key is reachable from a live manifest, a live
    /// chunk reference or a pending journal entry. Keys outside the SCFS
    /// key space are ignored (treated as reachable); one inside it that
    /// spells no blob is not.
    pub fn permits(&self, style: KeyStyle, key: &str) -> bool {
        !key.starts_with(style.key_space())
            || BlobName::parse(style, key).is_some_and(|blob| self.reachable.contains(&blob))
    }

    /// The stored keys *not* reachable: the orphans.
    pub fn orphans(&self, style: KeyStyle, keys: impl IntoIterator<Item = String>) -> Vec<String> {
        keys.into_iter()
            .filter(|k| !self.permits(style, k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scfs_crypto::sha256;

    fn h(tag: u8) -> ContentHash {
        sha256(&[tag])
    }

    #[test]
    fn retain_release_refcounting() {
        let mut store = ChunkStore::default();
        let shared: BTreeSet<ContentHash> = [h(1), h(2)].into_iter().collect();
        store.retain_version(&shared);
        store.retain_version(&shared);
        assert_eq!(store.refcount(&h(1)), 2);
        assert!(store.is_stored(&h(1)));
        store.release_version(shared.iter().copied());
        assert_eq!(store.refcount(&h(1)), 1);
        assert!(store.is_stored(&h(1)));
        assert_eq!(
            store.pending_len(),
            0,
            "a release that leaves references needs no intent — it could only be cancelled"
        );
        store.release_version(shared.iter().copied());
        assert_eq!(store.refcount(&h(1)), 0);
        assert_eq!(store.pending_len(), 2, "zero-count chunks get intents");
    }

    #[test]
    fn underflow_is_counted_and_reported() {
        let mut store = ChunkStore::default();
        let set: BTreeSet<ContentHash> = [h(1)].into_iter().collect();
        store.retain_version(&set);
        let mut violations = Vec::new();
        store.check_invariants(&mut violations);
        assert!(violations.is_empty());
        // Releasing twice against one retain is a double-release: the count
        // saturates (no corruption) but the invariant check reports it.
        store.release_version(set.iter().copied());
        store.release_version(set.iter().copied());
        assert_eq!(store.refcount(&h(1)), 0);
        store.check_invariants(&mut violations);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].name, "chunkstore.refcount-underflow");
    }

    #[test]
    fn provisional_upload_intents_cover_failed_writes() {
        let mut store = ChunkStore::default();
        let set: BTreeSet<ContentHash> = [h(4), h(5)].into_iter().collect();
        // A write journals its uploads first...
        store.journal_provisional_uploads(set.iter().copied());
        assert_eq!(store.pending_len(), 2);
        // ...and if it never commits, the entries demand deletion (rc 0).
        let seqs: Vec<u64> = store.pending_entries().map(|e| e.seq).collect();
        for seq in &seqs {
            assert!(
                store.decide(*seq).is_some(),
                "uncommitted upload is garbage"
            );
        }
        // A committed write cancels its provisional entries instead.
        store.retain_version(&set);
        store.cancel_chunk_releases(&set);
        assert_eq!(store.pending_len(), 0);
        assert!(store.is_stored(&h(4)));
    }

    #[test]
    fn failed_entries_rotate_to_the_back() {
        let mut store = ChunkStore::default();
        store.release_manifest("f", h(1));
        store.release_manifest("f", h(2));
        let first = store.pending_entries().next().unwrap().seq;
        store.mark_failed(first);
        let order: Vec<u64> = store.pending_entries().map(|e| e.seq).collect();
        assert_eq!(
            order,
            vec![first + 1, first],
            "a failing entry must not block the queue head"
        );
        assert_eq!(store.pending_entries().last().unwrap().attempts, 1);
    }

    #[test]
    fn decide_cancels_rereferenced_chunks() {
        let mut store = ChunkStore::default();
        let set: BTreeSet<ContentHash> = [h(1)].into_iter().collect();
        store.retain_version(&set);
        store.release_version(set.iter().copied());
        assert_eq!(store.refcount(&h(1)), 0);
        // A new version re-references the chunk before the delete ran.
        store.retain_version(&set);
        let seq = store.pending_entries().next().unwrap().seq;
        assert_eq!(store.decide(seq), None, "re-referenced chunk is cancelled");
        assert_eq!(store.pending_len(), 0);
        assert!(store.is_stored(&h(1)));
    }

    #[test]
    fn failed_deletes_stay_pending_and_count_attempts() {
        let mut store = ChunkStore::default();
        let set: BTreeSet<ContentHash> = [h(9)].into_iter().collect();
        store.retain_version(&set);
        store.release_version(set.iter().copied());
        let seq = store.pending_entries().next().unwrap().seq;
        assert!(matches!(
            store.decide(seq),
            Some(BlobName::Chunk(hash)) if hash == h(9)
        ));
        store.mark_failed(seq);
        let entry = store.pending_entries().next().unwrap();
        assert_eq!(entry.attempts, 1, "failure recorded, entry still pending");
        // The retry applies.
        assert!(store.decide(seq).is_some());
        store.mark_applied(seq);
        assert_eq!(store.pending_len(), 0);
        assert_eq!(store.refcount(&h(9)), 0);
    }

    #[test]
    fn manifest_release_and_cancel() {
        let mut store = ChunkStore::default();
        store.release_manifest("f1", h(3));
        store.release_manifest("f2", h(3));
        assert_eq!(store.pending_len(), 2);
        store.cancel_manifest_release("f1", &h(3));
        assert_eq!(store.pending_len(), 1);
        let left = store.pending_entries().next().unwrap();
        assert_eq!(left.target, BlobName::manifest("f2", h(3)));
    }

    #[test]
    fn reachable_chunks_include_pending_releases() {
        let mut store = ChunkStore::default();
        let live: BTreeSet<ContentHash> = [h(1)].into_iter().collect();
        let dead: BTreeSet<ContentHash> = [h(2)].into_iter().collect();
        store.retain_version(&live);
        store.retain_version(&dead);
        store.release_version(dead.iter().copied());
        store.release_manifest("f", h(3));
        let reachable = store.reachable_blobs();
        let expected = [
            BlobName::Chunk(h(1)),
            BlobName::Chunk(h(2)),
            BlobName::manifest("f", h(3)),
        ];
        assert_eq!(
            reachable,
            expected.into_iter().collect(),
            "live chunk, pending chunk release, pending manifest release"
        );
    }

    fn audit() -> BlobAudit {
        let blobs = [BlobName::Chunk(h(1)), BlobName::manifest("alice-f1", h(2))];
        BlobAudit::new(blobs.into_iter().collect())
    }

    #[test]
    fn audit_flags_unknown_scfs_keys_only() {
        let keys = vec![
            format!("scfs/chunks/{}", to_hex(&h(1))),
            format!("scfs/alice-f1/manifest/{}", to_hex(&h(2))),
            format!("scfs/chunks/{}", to_hex(&h(7))),
            format!("scfs/chunks/{}", to_hex(&h(1)).to_uppercase()),
            "scfs/neither-kind".to_string(),
            "unrelated/key".to_string(),
        ];
        let orphans = audit().orphans(KeyStyle::Aws, keys.clone());
        assert_eq!(orphans, keys[2..5]);
    }

    #[test]
    fn audit_parses_depsky_units() {
        let audit = audit();
        let ok_chunk = format!("depsky/chunks|{}/v1/block0", to_hex(&h(1)));
        let ok_manifest = format!("depsky/alice-f1|{}/metadata", to_hex(&h(2)));
        let orphan = format!("depsky/chunks|{}/v1/block2", to_hex(&h(9)));
        assert!(audit.permits(KeyStyle::DepSky, &ok_chunk));
        assert!(audit.permits(KeyStyle::DepSky, &ok_manifest));
        assert!(!audit.permits(KeyStyle::DepSky, &orphan));
        assert!(!audit.permits(KeyStyle::DepSky, "depsky/not-a-unit/metadata"));
        assert!(audit.permits(KeyStyle::DepSky, "unrelated/key"));
    }

    #[test]
    fn the_four_key_spellings_are_pinned() {
        // What is stored in a bucket outlives the code that stored it: a
        // change here orphans every deployed blob.
        let hash = sha256(b"pinned");
        let hex = to_hex(&hash);
        let chunk = BlobName::Chunk(hash);
        let manifest = BlobName::manifest("alice-f7", hash);
        assert_eq!(chunk.key(), format!("scfs/chunks/{hex}"));
        assert_eq!(manifest.key(), format!("scfs/alice-f7/manifest/{hex}"));
        let unit = |blob: &BlobName| DepSkyClient::blob_unit(blob.base(), blob.hash());
        assert_eq!(unit(&chunk), format!("chunks|{hex}"));
        assert_eq!(unit(&manifest), format!("alice-f7|{hex}"));
        assert_eq!(chunk.principal(&"alice".into()), chunk_store_account());
        assert_eq!(manifest.principal(&"alice".into()), "alice".into());
    }

    #[test]
    fn chunk_store_principal_is_stable() {
        assert_eq!(chunk_store_account().as_str(), CHUNK_STORE_PRINCIPAL);
    }
}
