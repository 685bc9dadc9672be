//! What SCFS stores in a cloud, and how it is reclaimed: [`BlobName`], the
//! one place that says what each blob is called, and [`ChunkStore`], the
//! two-phase release journal that deletes the blobs no version needs.
//!
//! Everything SCFS sends to a cloud is a write-once, content-addressed blob
//! of one object: a chunk of one of its versions ([`BlobName::Chunk`]) or
//! the manifest of one ([`BlobName::Manifest`]). [`BlobName`] says how a
//! blob is spelled on the single cloud, which DepSky unit it is, which
//! principal touches it, and how a raw cloud key parses back. The release
//! journal ([`JournalEntry`]), the orphan audit ([`BlobAudit`]) and both
//! storage adapters of [`crate::backend`] speak it and spell nothing
//! themselves.
//!
//! * **A chunk belongs to its object.** An object's chunks live under its
//!   storage id, as its manifests do, so a file's versions are that file's
//!   own cloud objects (paper §2.4) and what one file's collector deletes is
//!   never another file's (§2.5.3: the collector prunes each file's old
//!   versions). Identical content under two files is stored twice; dedup
//!   is within an object, across its versions: a commit uploads only the
//!   chunks that no retained version of the object names. A manifest is
//!   an object of its own only when it is too large to ride in the metadata
//!   tuple ([`crate::types::manifest_rides_inline`]); a version whose
//!   manifest rides inline is chunks and nothing else to this module.
//! * **A blob is live while a retained version of its object names it.**
//!   The backend's version registry is the liveness rule: there is no count
//!   to keep, and nothing to check one against.
//! * **A two-phase release journal makes reclamation idempotent.** Pruning
//!   versions first *appends* "intent to release" entries for the blobs
//!   that no retained version of the object names any more (phase one: the
//!   registry may forget the versions, the journal has not), and only then
//!   does a replay take the whole queue and delete them (phase two). A
//!   failed delete puts its entry back at the end of the queue: the next
//!   replay retries it instead of leaking the blob. A blob that a version
//!   names again before its pending delete runs is *cancelled*, never
//!   deleted.
//!
//! A failed write is journaled too: when `write_version` fails after
//! issuing its wave — after some chunk uploads, or on the manifest put — it
//! appends intents for the chunks it planned to upload, then the manifest
//! object if the version was to store one, and the next replay reclaims
//! whatever landed instead of orphaning it. The journal never holds a
//! [`BlobName::Manifest`] for a manifest that rides inline: not for a
//! failed write, not when its version is pruned — there is no object, and a
//! delete of one would be a request (a round of them on the
//! cloud-of-clouds) for nothing.
//!
//! Journal replay is driven by the agent's garbage collector, which runs as
//! a job on the [`sim_core::background::BackgroundScheduler`]'s GC lane:
//! cycles serialize with one another but overlap with uploads and
//! prefetches in virtual time, and each cycle's phase-one releases and
//! phase-two replay share one forked clock.
//!
//! ## Shared ownership
//!
//! Chunk blobs are written, read and deleted under a dedicated chunk-store
//! principal ([`chunk_store_account`]) rather than the user who wrote them,
//! so a `setfacl` re-tags a file's manifest objects only, never its chunks.
//! Access control remains with the per-object manifests: a reader can only
//! learn a chunk's name from a manifest its ACL lets it read, so the name
//! acts as a read capability. The trade-off: a revoked reader that cached a
//! manifest can still fetch its chunks until they are collected.
//!
//! ## One collector per object
//!
//! The registry and the journal are state of **one backend instance**, as
//! every client runs its own agent (paper §2.2). Two instances never share
//! a blob of two different objects, so each collects its own files without
//! seeing the other's. One object written through two instances is still
//! collected by each of them from its own records; the rule that settles
//! it, a collector pruning an object only under its write lock, is tracked
//! in the ROADMAP.

use std::collections::{BTreeSet, VecDeque};

use cloud_store::types::AccountId;
use depsky::register::DepSkyClient;
use scfs_crypto::{hash_from_hex, to_hex, ContentHash};

/// Account name of the chunk-store principal that owns every chunk blob.
pub const CHUNK_STORE_PRINCIPAL: &str = "scfs-chunkstore";

/// The cloud account under which all chunk blobs are written, read and
/// deleted.
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
/// | chunk | `scfs/{id}/chunks/{hex}` | `{id}.chunks\|{hex}` | [`chunk_store_account`] | journal replay, once no retained version of `id` names it |
/// | manifest | `scfs/{id}/manifest/{hex}` | `{id}\|{hex}` | the calling user | journal replay, once no retained version of `id` stores the root |
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlobName {
    /// A chunk of a version of one object, addressed by its content hash
    /// under the object's storage id.
    Chunk {
        /// Storage id of the object the chunk belongs to.
        id: String,
        /// Content hash of the chunk.
        hash: ContentHash,
    },
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
/// What follows an object id in the single-cloud key of one of its chunks.
const CHUNKS: &str = "/chunks";
/// What follows an object id in the single-cloud key of one of its
/// manifests.
const MANIFEST: &str = "/manifest";
/// What follows an object id in the DepSky base of its chunks. A DepSky
/// unit is one key segment, so the chunks cannot nest under the id there;
/// object ids end in `-f{n}` and never with this suffix.
const CHUNK_BASE: &str = ".chunks";

impl BlobName {
    /// The chunk `hash` of `id`.
    pub fn chunk(id: &str, hash: ContentHash) -> Self {
        BlobName::Chunk {
            id: id.to_string(),
            hash,
        }
    }

    /// The manifest of `id` stored under `root`.
    pub fn manifest(id: &str, root: ContentHash) -> Self {
        BlobName::Manifest {
            id: id.to_string(),
            root,
        }
    }

    /// Storage id of the object the blob belongs to.
    pub fn id(&self) -> &str {
        match self {
            BlobName::Chunk { id, .. } | BlobName::Manifest { id, .. } => id,
        }
    }

    /// The content hash the blob is addressed by and verified against.
    pub fn hash(&self) -> &ContentHash {
        match self {
            BlobName::Chunk { hash, .. } | BlobName::Manifest { root: hash, .. } => hash,
        }
    }

    /// The base of the blob's DepSky unit; with [`BlobName::hash`], its
    /// address on the cloud-of-clouds.
    pub fn base(&self) -> String {
        match self {
            BlobName::Chunk { id, .. } => format!("{id}{CHUNK_BASE}"),
            BlobName::Manifest { id, .. } => id.clone(),
        }
    }

    /// The blob's key on a single cloud.
    pub fn key(&self) -> String {
        let hex = to_hex(self.hash());
        let kind = match self {
            BlobName::Chunk { .. } => CHUNKS,
            BlobName::Manifest { .. } => MANIFEST,
        };
        format!("{KEY_SPACE}{}{kind}/{hex}", self.id())
    }

    /// The account every request for this blob is made under. Chunks are
    /// written, read and deleted under the chunk-store principal, never the
    /// calling user (whose right to a chunk was established by reading a
    /// manifest its ACL admits it to — the name is the capability);
    /// manifests are the caller's own.
    pub fn principal(&self, caller: &AccountId) -> AccountId {
        match self {
            BlobName::Chunk { .. } => chunk_store_account(),
            BlobName::Manifest { .. } => caller.clone(),
        }
    }

    /// The blob a raw cloud key of `style` belongs to — for a single-cloud
    /// key the inverse of [`BlobName::key`], for a DepSky one the blob whose
    /// unit the object is part of. `None` for a key that spells no blob.
    pub fn parse(style: KeyStyle, key: &str) -> Option<BlobName> {
        match style {
            KeyStyle::Aws => {
                let (object, hex) = key.strip_prefix(KEY_SPACE)?.rsplit_once('/')?;
                let hash = hash_from_hex(hex)?;
                match object.strip_suffix(CHUNKS) {
                    Some(id) => Some(BlobName::chunk(id, hash)),
                    None => Some(BlobName::manifest(object.strip_suffix(MANIFEST)?, hash)),
                }
            }
            KeyStyle::DepSky => {
                let (base, hash) = DepSkyClient::blob_of_key(key)?;
                Some(match base.strip_suffix(CHUNK_BASE) {
                    Some(id) => BlobName::chunk(id, hash),
                    None => BlobName::manifest(base, hash),
                })
            }
        }
    }
}

/// One entry of the release journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
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
    /// Entries applied without a delete (a retained version named the blob
    /// again while the release was pending).
    pub cancelled: u64,
    /// Attempted entries that had already failed at least once — each one is
    /// a blob that the old `?`-aborting collector would have leaked forever.
    pub retried: u64,
    /// Deletions that succeeded on a retry: orphans reclaimed.
    pub reclaimed_after_retry: u64,
    /// Delete attempts that failed this pass; their entries stay pending.
    pub errors: u64,
}

/// The release journal of one backend instance: a queue of the blobs it
/// intends to delete, oldest first. Which blobs are live is the version
/// registry's to say; the journal only remembers what may have to go.
#[derive(Debug, Default)]
pub struct ChunkStore {
    pending: VecDeque<JournalEntry>,
}

impl ChunkStore {
    /// Number of pending release intents.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending release intents, oldest first.
    pub fn pending_entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.pending.iter()
    }

    /// Appends an intent to release each of `blobs`: the blobs a prune left
    /// unnamed (phase one; the physical deletes happen in replay, so a
    /// delete failure between the phases leaves retryable entries, never
    /// orphans), or the blobs a failed write may have stored (no version
    /// names them, and replay reclaims them instead of orphaning them).
    pub fn journal(&mut self, blobs: impl IntoIterator<Item = BlobName>) {
        let entries = blobs.into_iter().map(|target| JournalEntry {
            target,
            attempts: 0,
        });
        self.pending.extend(entries);
    }

    /// Cancels the pending intents of `blobs` — the blobs of a newly
    /// recorded version: an intent left by an earlier prune or failed write
    /// must not destroy a blob just recommitted. Cancellation is pure
    /// bookkeeping.
    pub fn cancel(&mut self, blobs: &BTreeSet<BlobName>) {
        self.pending.retain(|entry| !blobs.contains(&entry.target));
    }

    /// Takes every pending entry, oldest first, for one replay pass; what
    /// the pass cannot apply it hands back with [`ChunkStore::requeue_failed`].
    pub fn take_pending(&mut self) -> Vec<JournalEntry> {
        self.pending.drain(..).collect()
    }

    /// Puts `entry`, whose delete just failed, back at the end of the queue
    /// with one more attempt counted, so a persistently failing blob is not
    /// what every pass attempts first.
    pub fn requeue_failed(&mut self, mut entry: JournalEntry) {
        entry.attempts += 1;
        self.pending.push_back(entry);
    }

    /// The blobs that may legitimately exist in the cloud: `live`, every
    /// blob a retained version names, and every blob with a pending release.
    pub fn reachable_blobs(&self, live: impl IntoIterator<Item = BlobName>) -> BTreeSet<BlobName> {
        let mut set: BTreeSet<BlobName> = live.into_iter().collect();
        set.extend(self.pending.iter().map(|entry| entry.target.clone()));
        set
    }
}

/// The set of blobs that may legitimately exist in the cloud(s) for one
/// backend instance: every blob a retained version names or a pending
/// journal entry targets ([`ChunkStore::reachable_blobs`]). Anything else
/// under the SCFS key space is an orphan — the leak class the release
/// journal exists to prevent.
///
/// Built by the storages' `blob_audit`; tests feed it the raw key listing of
/// a `SimulatedCloud` (`stored_keys`) and assert [`BlobAudit::orphans`] is
/// empty. Audits of several instances over the same clouds combine with
/// [`BlobAudit::union`].
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

    /// The audit of two backend instances over the same clouds: a blob
    /// either of them accounts for is reachable.
    pub fn union(mut self, other: BlobAudit) -> Self {
        self.reachable.extend(other.reachable);
        self
    }

    /// Whether a stored cloud key is reachable from a retained version or a
    /// pending journal entry. Keys outside the SCFS key space are ignored
    /// (treated as reachable); one inside it that spells no blob is not.
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

    fn chunk(tag: u8) -> BlobName {
        BlobName::chunk("f", h(tag))
    }

    fn set(blobs: impl IntoIterator<Item = BlobName>) -> BTreeSet<BlobName> {
        blobs.into_iter().collect()
    }

    #[test]
    fn provisional_upload_intents_cover_failed_writes() {
        let mut store = ChunkStore::default();
        let blobs = set([chunk(4), chunk(5)]);
        // A failed write journals what it may have stored...
        store.journal(blobs.iter().cloned());
        assert_eq!(store.pending_len(), 2);
        // ...so no version names them, yet they stay reachable until a
        // replay deletes them.
        assert_eq!(
            store.reachable_blobs([]),
            blobs,
            "an unrecorded upload is garbage"
        );
        // A version that stores them after all cancels the entries instead.
        store.cancel(&blobs);
        assert_eq!(store.pending_len(), 0);
    }

    #[test]
    fn failed_entries_rotate_to_the_back() {
        let (first, second) = (BlobName::manifest("f", h(1)), BlobName::manifest("f", h(2)));
        let mut store = ChunkStore::default();
        store.journal([first.clone()]);
        let batch = store.take_pending();
        store.journal([second.clone()]);
        for entry in batch {
            store.requeue_failed(entry);
        }
        let order: Vec<(BlobName, u32)> = store
            .pending_entries()
            .map(|e| (e.target.clone(), e.attempts))
            .collect();
        assert_eq!(
            order,
            vec![(second, 0), (first, 1)],
            "a failing entry must not block the queue head"
        );
    }

    #[test]
    fn decide_cancels_rereferenced_chunks() {
        let mut store = ChunkStore::default();
        store.journal([chunk(1)]);
        // A version names the chunk again before the delete ran: its
        // commit cancels the release.
        store.cancel(&set([chunk(1)]));
        assert_eq!(store.pending_len(), 0);
        // An intent journaled while a version names the chunk — by a write
        // that then failed — is dropped at replay: the pass takes it, finds
        // the chunk named, deletes nothing and hands nothing back (the
        // backend's `a_failed_rewrite_of_a_retained_root_is_cancelled_at_replay`).
        store.journal([chunk(1)]);
        let batch = store.take_pending();
        assert_eq!(batch.len(), 1, "a named chunk is cancelled");
        assert_eq!(store.pending_len(), 0);
    }

    #[test]
    fn failed_deletes_stay_pending_and_count_attempts() {
        let mut store = ChunkStore::default();
        store.journal([chunk(9)]);
        let mut batch = store.take_pending();
        assert_eq!(
            batch,
            vec![JournalEntry {
                target: chunk(9),
                attempts: 0
            }]
        );
        store.requeue_failed(batch.remove(0));
        let entry = store.pending_entries().next().unwrap();
        assert_eq!(entry.attempts, 1, "failure recorded, entry still pending");
        // The retry applies: the pass takes the entry and does not hand it
        // back.
        let retry = store.take_pending();
        assert_eq!(retry[0].attempts, 1);
        assert_eq!(store.pending_len(), 0);
    }

    #[test]
    fn manifest_release_and_cancel() {
        let mut store = ChunkStore::default();
        let (f1, f2) = (
            BlobName::manifest("f1", h(3)),
            BlobName::manifest("f2", h(3)),
        );
        store.journal([f1.clone(), f2.clone()]);
        assert_eq!(store.pending_len(), 2);
        // Manifests are per object: recommitting f1's root cancels f1's
        // release only.
        store.cancel(&set([f1]));
        assert_eq!(store.pending_len(), 1);
        let left = store.pending_entries().next().unwrap();
        assert_eq!(left.target, f2);
    }

    #[test]
    fn reachable_chunks_include_pending_releases() {
        let mut store = ChunkStore::default();
        store.journal([chunk(2), BlobName::manifest("f", h(3))]);
        let reachable = store.reachable_blobs([chunk(1)]);
        let expected = [chunk(1), chunk(2), BlobName::manifest("f", h(3))];
        assert_eq!(
            reachable,
            expected.into_iter().collect(),
            "named chunk, pending chunk release, pending manifest release"
        );
    }

    fn audit() -> BlobAudit {
        let blobs = [
            BlobName::chunk("alice-f1", h(1)),
            BlobName::manifest("alice-f1", h(2)),
        ];
        BlobAudit::new(blobs.into_iter().collect())
    }

    #[test]
    fn audit_flags_unknown_scfs_keys_only() {
        let keys = vec![
            format!("scfs/alice-f1/chunks/{}", to_hex(&h(1))),
            format!("scfs/alice-f1/manifest/{}", to_hex(&h(2))),
            format!("scfs/alice-f1/chunks/{}", to_hex(&h(7))),
            format!("scfs/alice-f1/chunks/{}", to_hex(&h(1)).to_uppercase()),
            format!("scfs/bob-f1/chunks/{}", to_hex(&h(1))),
            format!("scfs/chunks/{}", to_hex(&h(1))),
            "scfs/neither-kind".to_string(),
            "unrelated/key".to_string(),
        ];
        let orphans = audit().orphans(KeyStyle::Aws, keys.clone());
        assert_eq!(orphans, keys[2..7]);
        // What a second instance accounts for is no orphan of the union.
        let bob = BlobAudit::new(set([BlobName::chunk("bob-f1", h(1))]));
        let orphans = audit().union(bob).orphans(KeyStyle::Aws, keys.clone());
        assert_eq!(orphans, [&keys[2..4], &keys[5..7]].concat());
    }

    #[test]
    fn audit_parses_depsky_units() {
        let audit = audit();
        let ok_chunk = format!("depsky/alice-f1.chunks|{}/v1/block0", to_hex(&h(1)));
        let ok_manifest = format!("depsky/alice-f1|{}/metadata", to_hex(&h(2)));
        let orphan = format!("depsky/alice-f1.chunks|{}/v1/block2", to_hex(&h(9)));
        let other_object = format!("depsky/bob-f1.chunks|{}/v1/block0", to_hex(&h(1)));
        assert!(audit.permits(KeyStyle::DepSky, &ok_chunk));
        assert!(audit.permits(KeyStyle::DepSky, &ok_manifest));
        assert!(!audit.permits(KeyStyle::DepSky, &orphan));
        assert!(!audit.permits(KeyStyle::DepSky, &other_object));
        assert!(!audit.permits(KeyStyle::DepSky, "depsky/not-a-unit/metadata"));
        assert!(audit.permits(KeyStyle::DepSky, "unrelated/key"));
    }

    #[test]
    fn the_four_key_spellings_are_pinned() {
        // What is stored in a bucket outlives the code that stored it: a
        // change here orphans every deployed blob.
        let hash = sha256(b"pinned");
        let hex = to_hex(&hash);
        let chunk = BlobName::chunk("alice-f7", hash);
        let manifest = BlobName::manifest("alice-f7", hash);
        assert_eq!(chunk.key(), format!("scfs/alice-f7/chunks/{hex}"));
        assert_eq!(manifest.key(), format!("scfs/alice-f7/manifest/{hex}"));
        let unit = |blob: &BlobName| DepSkyClient::blob_unit(&blob.base(), blob.hash());
        assert_eq!(unit(&chunk), format!("alice-f7.chunks|{hex}"));
        assert_eq!(unit(&manifest), format!("alice-f7|{hex}"));
        assert_eq!(chunk.principal(&"alice".into()), chunk_store_account());
        assert_eq!(manifest.principal(&"alice".into()), "alice".into());
    }

    #[test]
    fn chunk_store_principal_is_stable() {
        assert_eq!(chunk_store_account().as_str(), CHUNK_STORE_PRINCIPAL);
    }
}
