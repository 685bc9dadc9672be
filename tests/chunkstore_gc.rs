//! Integration tests of the refcounted global chunk store and its two-phase
//! release journal — the acceptance criteria of the chunkstore refactor:
//!
//! * identical content written under a second file id (or by a second user)
//!   uploads zero chunks, on both the AWS and CoC backends;
//! * deleting one file never reclaims a chunk another file's retained
//!   version still references;
//! * with injected delete faults the GC reaches zero orphans within two
//!   retry cycles — asserted by the orphan-leak check, which lists every
//!   blob a `SimulatedCloud` actually stores and verifies each one is
//!   reachable from a live manifest, a live chunk reference or a pending
//!   release-journal entry;
//! * journal replay is idempotent under arbitrary repeated delete faults
//!   (property-tested);
//! * the keys that audit parses are the keys the backends write: a blob
//!   name formats and parses back to itself under both key styles
//!   (property-tested);
//! * a version commit that fails part-way through its single upload wave —
//!   a chunk PUT beside a stored manifest, or either half of a DepSky blob —
//!   leaves the anchor untouched and is fully reclaimed by one replay; the
//!   commit of a version whose manifest rides in the tuple journals chunk
//!   intents only, and its manifest-only copy has no request that can fail.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use scfs_repro::cloud_store::error::StorageError;
use scfs_repro::cloud_store::providers::ProviderProfile;
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::cloud_store::types::{Acl, ObjectMeta, Permission};
use scfs_repro::depsky::register::DepSkyClient;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::chunkstore::{BlobName, JournalOpts, KeyStyle};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::transfer::TransferOptions;
use scfs_repro::scfs::types::{ChunkMap, CutRule, OpenFlags};
use scfs_repro::scfs_crypto::sha256;
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{Backend, Deployment, Plane, Providers};

const CHUNK: usize = 64 * 1024;

/// Chunks of the smallest version whose manifest is stored as an object
/// rather than carried in the metadata tuple.
const OVER_BOUND: usize = 13;

/// A test payload of `n` `CHUNK`-sized blocks that all differ.
fn distinct_chunks(tag: u8, n: usize) -> Vec<u8> {
    let mut data = vec![0u8; n * CHUNK];
    for (i, chunk) in data.chunks_mut(CHUNK).enumerate() {
        chunk.fill(tag ^ (i as u8 + 1));
    }
    data
}

/// A four-chunk test payload: its manifest rides in the metadata tuple.
fn four_chunks(tag: u8) -> Vec<u8> {
    distinct_chunks(tag, 4)
}

fn test_config() -> ScfsConfig {
    let mut config = ScfsConfig::test(Mode::Blocking);
    config.chunking = CutRule::Fixed(CHUNK);
    config
}

/// An object store that fails `delete` according to a scripted pattern
/// (front of the queue per call; an empty queue succeeds) and `put` of every
/// key containing a configured substring, delegating everything else — the
/// fault injector for the orphan-leak and failed-commit regressions.
struct FaultyCloud {
    inner: Arc<SimulatedCloud>,
    fail_pattern: Mutex<VecDeque<bool>>,
    failing_puts: Mutex<Option<&'static str>>,
}

impl FaultyCloud {
    fn new(inner: Arc<SimulatedCloud>) -> Self {
        FaultyCloud {
            inner,
            fail_pattern: Mutex::new(VecDeque::new()),
            failing_puts: Mutex::new(None),
        }
    }

    /// Fails every `put` whose key contains `needle` until reset to `None`.
    fn fail_puts_containing(&self, needle: Option<&'static str>) {
        *self.failing_puts.lock().unwrap() = needle;
    }

    /// Scripts the next delete outcomes: `true` = fail.
    fn script_failures(&self, pattern: impl IntoIterator<Item = bool>) {
        self.fail_pattern.lock().unwrap().extend(pattern);
    }

    fn fail_all_for(&self, n: usize) {
        self.script_failures(std::iter::repeat_n(true, n));
    }

    fn heal(&self) {
        self.fail_pattern.lock().unwrap().clear();
    }
}

impl ObjectStore for FaultyCloud {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn profile(&self) -> &ProviderProfile {
        self.inner.profile()
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        if let Some(needle) = *self.failing_puts.lock().unwrap() {
            if key.contains(needle) {
                return Err(StorageError::unavailable("injected put fault"));
            }
        }
        self.inner.put(ctx, key, data)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.get(ctx, key)
    }

    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError> {
        self.inner.head(ctx, key)
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError> {
        let fail = self
            .fail_pattern
            .lock()
            .unwrap()
            .pop_front()
            .unwrap_or(false);
        if fail {
            return Err(StorageError::unavailable("injected delete fault"));
        }
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

/// The orphan-leak check: every blob the clouds store under the SCFS
/// namespace must be reachable from a live manifest, a live chunk reference
/// or a pending release-journal entry of the deployment's backend.
fn assert_no_orphans(deployment: &Deployment) {
    let orphans = deployment.orphans();
    assert!(orphans.is_empty(), "unreachable blobs leaked: {orphans:?}");
}

/// An instantaneous deployment of `backend` behind one [`FaultyCloud`] per
/// cloud, and those interposers.
fn faulty_deployment(backend: Backend) -> (Deployment, Vec<Arc<FaultyCloud>>) {
    let mut faulty = Vec::new();
    let deployment = Deployment::on(backend)
        .providers(Providers::Instantaneous)
        .plane(Plane::Instantaneous)
        .build_behind(11, |sim| {
            let cloud = Arc::new(FaultyCloud::new(sim));
            faulty.push(cloud.clone());
            cloud
        });
    (deployment, faulty)
}

#[test]
fn identical_content_under_a_second_file_uploads_zero_chunks_aws() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut fs = deployment.mount("alice", test_config(), 1);

    let data = four_chunks(0);
    fs.write_file("/a", &data).unwrap();
    let first = fs.stats();
    assert_eq!(first.chunk_uploads, 4);
    assert_eq!(first.dedup_hits_cross_file, 0);

    fs.write_file("/b", &data).unwrap();
    let second = fs.stats();
    assert_eq!(
        second.chunk_uploads, first.chunk_uploads,
        "identical content under a second file id must upload zero chunks"
    );
    assert_eq!(second.dedup_hits_cross_file, 4);
    assert_eq!(fs.read_file("/b").unwrap(), data);
    assert_no_orphans(&deployment);
}

#[test]
fn identical_content_under_a_second_file_uploads_zero_chunks_coc() {
    let deployment = Deployment::instant(Backend::CloudOfClouds, 11);
    let mut fs = deployment.mount("alice", test_config(), 1);

    let data = four_chunks(0x30);
    fs.write_file("/a", &data).unwrap();
    assert_eq!(fs.stats().chunk_uploads, 4);
    fs.write_file("/b", &data).unwrap();
    assert_eq!(fs.stats().chunk_uploads, 4, "zero chunks moved for /b");
    assert_eq!(fs.stats().dedup_hits_cross_file, 4);
    assert_eq!(fs.read_file("/b").unwrap(), data);
    assert_no_orphans(&deployment);
}

#[test]
fn identical_content_from_a_second_user_uploads_zero_chunks() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut alice = deployment.mount("alice", test_config(), 1);
    let mut bob = deployment.mount("bob", test_config(), 2);

    let data = four_chunks(0x50);
    alice.write_file("/alice/doc", &data).unwrap();
    // Bob writes his *own private file* with identical bytes: the global
    // chunk store moves nothing, and Bob can still read every byte back —
    // the chunks are owned by the shared chunk-store principal, not Alice.
    bob.write_file("/bob/doc", &data).unwrap();
    assert_eq!(bob.stats().chunk_uploads, 0, "cross-user dedup");
    assert_eq!(bob.stats().dedup_hits_cross_file, 4);
    assert_eq!(bob.read_file("/bob/doc").unwrap(), data);
    assert_no_orphans(&deployment);
}

#[test]
fn deleting_one_file_never_reclaims_chunks_another_file_references() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    config.gc.versions_to_keep = 1;
    let mut fs = deployment.mount("alice", config, 3);

    let data = four_chunks(0x70);
    fs.write_file("/keep", &data).unwrap();
    fs.write_file("/kill", &data).unwrap();
    fs.unlink("/kill").unwrap();
    // Any write past the 1-byte threshold triggers a GC cycle that fully
    // deletes /kill.
    fs.write_file("/trigger", b"x").unwrap();
    assert!(fs.stats().gc_runs >= 1);

    // /kill's references are gone, but /keep still holds its own.
    assert_eq!(fs.read_file("/keep").unwrap(), data);
    let map = ChunkMap::build(&data, CHUNK);
    for hash in map.unique_chunks() {
        assert_eq!(
            deployment.chunk_refcount(&hash),
            1,
            "exactly /keep's reference must remain"
        );
    }
    assert_eq!(deployment.storage().pending_releases(), 0);
    assert_no_orphans(&deployment);
}

/// A handle outlives the unlink of its file, as a descriptor of an unlinked
/// POSIX file does, but its close gives the name back to nobody: it commits
/// nothing, so no tuple is left pointing at the storage the collector
/// releases.
#[test]
fn closing_a_dirty_handle_of_an_unlinked_file_commits_nothing() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    let mut fs = deployment.mount("alice", config, 3);

    fs.write_file("/doomed", &four_chunks(0x21)).unwrap();
    let h = fs.open("/doomed", OpenFlags::read_write()).unwrap();
    fs.write(h, 0, &four_chunks(0x22)).unwrap();
    fs.unlink("/doomed").unwrap();
    let gone = |fs: &mut ScfsAgent| matches!(fs.stat("/doomed"), Err(ScfsError::NotFound { .. }));
    assert!(gone(&mut fs), "the dirty handle no longer names the path");
    fs.close(h).unwrap();
    assert_eq!(fs.stats().cloud_uploads, 1, "the close committed nothing");
    // Any write past the 1-byte threshold runs a GC cycle, which releases
    // every version of /doomed.
    fs.write_file("/trigger", b"x").unwrap();
    assert!(fs.stats().gc_runs >= 2);
    assert!(gone(&mut fs));
    fs.sleep(SimDuration::from_secs(2));
    assert!(gone(&mut fs), "past the metadata cache too");
    assert_eq!(deployment.storage().pending_releases(), 0);
    assert_no_orphans(&deployment);
    let mut clock = Clock::new();
    clock.advance_to(fs.now());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let tuple = deployment.coordinator().get(&mut ctx, "/scfs/meta/doomed");
    assert!(tuple.is_err(), "a tuple was left behind: {tuple:?}");
}

/// An open hole, pinned as it behaves: only the unlinking agent knows its
/// handles of the file. A write handle on another mount — here a grantee's —
/// still commits on close, and its unconditional anchor update writes the
/// tuple back. The owner's collector then releases every version of the
/// object, the one just committed included, so the name lists and stats but
/// its bytes are gone. A fix (a close whose anchor update is conditional on
/// the tuple it opened, ROADMAP item 12) makes that close fail and flips the
/// last assertion to `NotFound`.
#[test]
fn open_hole_a_close_on_another_mount_after_unlink_anchors_a_tuple_without_storage() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    let mut alice = deployment.mount("alice", config, 3);
    let mut bob = deployment.mount("bob", test_config(), 4);

    alice.write_file("/shared/doc", &four_chunks(0x31)).unwrap();
    alice
        .setfacl("/shared/doc", &"bob".into(), Permission::Write)
        .unwrap();
    bob.sleep(SimDuration::from_secs(1));
    let h = bob.open("/shared/doc", OpenFlags::read_write()).unwrap();
    bob.write(h, 0, &four_chunks(0x32)).unwrap();
    alice.sleep(bob.now().duration_since(alice.now()));
    alice.unlink("/shared/doc").unwrap();
    bob.sleep(alice.now().duration_since(bob.now()));
    bob.close(h).unwrap();
    // Past the 1-byte threshold: alice's collector releases the object.
    alice.sleep(bob.now().duration_since(alice.now()));
    alice.write_file("/trigger", b"x").unwrap();
    assert!(alice.stats().gc_runs >= 2);
    assert_no_orphans(&deployment);
    // A cold mount: nothing of the file is in its caches.
    let mut reader = deployment.mount("bob", test_config(), 5);
    reader.sleep(alice.now().duration_since(reader.now()) + SimDuration::from_secs(2));
    let read = reader.read_file("/shared/doc");
    assert!(read.is_err(), "its storage is gone");
    let stat = reader.stat("/shared/doc").map(|md| md.version_count);
    assert!(matches!(stat, Ok(2)), "{stat:?}");
}

#[test]
fn gc_reaches_zero_orphans_within_two_cycles_despite_delete_faults() {
    let (deployment, faulty) = faulty_deployment(Backend::Aws);
    let flaky = &faulty[0];
    let mut config = test_config();
    // Three 256 KiB versions cross the threshold on the third close, so the
    // first GC cycle runs with two prunable versions — under delete faults.
    config.gc.written_bytes_threshold = Bytes::new(600_000);
    config.gc.versions_to_keep = 1;
    let mut fs = deployment.mount("alice", config, 4);

    fs.write_file("/f", &four_chunks(0x01)).unwrap();
    fs.write_file("/f", &four_chunks(0x02)).unwrap();
    assert_eq!(fs.stats().gc_runs, 0, "threshold not yet crossed");

    // Cycle 1: every delete fails. The journal must keep every blob
    // reachable — failures surface in the stats, nothing leaks.
    flaky.fail_all_for(1000);
    fs.write_file("/f", &four_chunks(0x03)).unwrap();
    let after_faulty = fs.stats();
    assert_eq!(after_faulty.gc_runs, 1);
    assert!(after_faulty.gc_errors > 0, "failed deletes must be counted");
    assert!(deployment.storage().pending_releases() > 0);
    assert_no_orphans(&deployment);

    // Cycle 2: the cloud heals. The retry pass reclaims every orphan.
    flaky.heal();
    fs.write_file("/refill", &vec![0x99u8; 600_000]).unwrap();
    let healed = fs.stats();
    assert_eq!(healed.gc_runs, 2);
    assert!(healed.gc_retried > 0, "pending entries were re-attempted");
    assert!(
        healed.gc_orphans_reclaimed > 0,
        "retried deletions reclaimed the orphans"
    );
    assert_eq!(
        deployment.storage().pending_releases(),
        0,
        "journal fully drained"
    );
    assert_no_orphans(&deployment);
    // The retained data was never touched by any of this.
    assert_eq!(fs.read_file("/f").unwrap(), four_chunks(0x03));
}

#[test]
fn coc_gc_leaves_no_orphans() {
    let deployment = Deployment::instant(Backend::CloudOfClouds, 11);
    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    config.gc.versions_to_keep = 1;
    let mut fs = deployment.mount("alice", config, 5);

    for tag in [0x11u8, 0x12, 0x13] {
        fs.write_file("/f", &four_chunks(tag)).unwrap();
    }
    fs.write_file("/kill", &four_chunks(0x44)).unwrap();
    fs.unlink("/kill").unwrap();
    fs.write_file("/trigger", b"x").unwrap();
    assert!(fs.stats().gc_runs >= 1);
    assert!(fs.stats().gc_reclaimed_versions > 0);
    assert_eq!(deployment.storage().pending_releases(), 0);
    assert_no_orphans(&deployment);
    assert_eq!(fs.read_file("/f").unwrap(), four_chunks(0x13));
}

/// A deployment over put-faultable clouds, with the raw view the
/// failed-commit tests audit: every key every cloud stores.
struct FaultEnv {
    deployment: Deployment,
    faulty: Vec<Arc<FaultyCloud>>,
}

impl FaultEnv {
    fn new(backend: Backend) -> Self {
        let (deployment, faulty) = faulty_deployment(backend);
        FaultEnv { deployment, faulty }
    }

    fn stored_keys(&self) -> Vec<Vec<String>> {
        let clouds = self.deployment.clouds.iter();
        clouds.map(|cloud| cloud.stored_keys("")).collect()
    }

    fn fail_puts_containing(&self, needle: Option<&'static str>) {
        for cloud in &self.faulty {
            cloud.fail_puts_containing(needle);
        }
    }
}

/// A dirty close of a `chunks`-chunk version whose PUTs of keys containing
/// `failing_puts` fail, while everything else in the same wave lands
/// (`lands_beside`: whether there is anything else): the close errors out,
/// the anchor still names the old version, the journal holds one intent per
/// chunk plus one for the manifest only if the version was going to store
/// one, nothing stored is unreachable, and one journal replay brings the
/// clouds back to exactly the old version's blobs (so the registry never
/// tracked the failed root — replay deletes a manifest only when no
/// retained version stores it).
fn assert_failed_commit_is_reclaimed(
    env: FaultEnv,
    failing_puts: &'static str,
    chunks: usize,
    lands_beside: bool,
) {
    let storage = env.deployment.storage();
    let mut fs = env.deployment.mount("alice", test_config(), 1);
    let (v1, v2) = (distinct_chunks(0x20, chunks), distinct_chunks(0x40, chunks));
    fs.write_file("/f", &v1).unwrap();
    let committed = env.stored_keys();

    env.fail_puts_containing(Some(failing_puts));
    assert!(fs.write_file("/f", &v2).is_err());
    env.fail_puts_containing(None);
    assert_eq!(
        env.stored_keys() != committed,
        lands_beside,
        "the requests beside the failing ones were issued and landed"
    );
    assert_eq!(
        storage.pending_releases(),
        chunks + usize::from(chunks >= OVER_BOUND),
        "an intent per chunk, and one for a manifest that was to be stored"
    );
    assert_no_orphans(&env.deployment);

    let mut reader = env.deployment.mount("alice", test_config(), 2);
    reader.sleep(SimDuration::from_secs(1));
    assert_eq!(reader.read_file("/f").unwrap(), v1, "anchor unchanged");

    let mut clock = Clock::starting_at(fs.now());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let report = storage
        .replay_release_journal(&mut ctx, &JournalOpts::default())
        .unwrap();
    assert_eq!(report.errors, 0);
    assert_eq!(storage.pending_releases(), 0);
    assert_eq!(env.stored_keys(), committed, "one replay reclaims the rest");
    assert_eq!(reader.read_file("/f").unwrap(), v1);
}

#[test]
fn failed_chunk_put_beside_a_stored_manifest_is_reclaimed_aws() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::Aws),
        "scfs/chunks/",
        OVER_BOUND,
        true,
    );
}

#[test]
fn failed_chunk_put_beside_a_stored_manifest_is_reclaimed_coc() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        "depsky/chunks|",
        OVER_BOUND,
        true,
    );
}

/// The inline twins: a one-PUT close whose one PUT fails. Nothing landed,
/// and the journal holds the chunk's intent and no manifest's.
#[test]
fn failed_one_put_close_journals_no_manifest_intent_aws() {
    assert_failed_commit_is_reclaimed(FaultEnv::new(Backend::Aws), "scfs/chunks/", 1, false);
}

#[test]
fn failed_one_put_close_journals_no_manifest_intent_coc() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        "depsky/chunks|",
        1,
        false,
    );
}

/// No block of the wave lands: the manifest lands its DepSky metadata
/// record alone, and a chunk, which has no record, lands nothing.
#[test]
fn depsky_blobs_with_records_but_no_blocks_are_reclaimed() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        "/block",
        OVER_BOUND,
        true,
    );
}

/// The reverse: blocks without a record. The chunks land their blocks (a
/// chunk never has a record) and the manifest its blocks but no record.
/// Nothing but a blob's address says where they are: a chunk's delete always
/// derives its keys, and the manifest's takes `delete_blob`'s no-record
/// branch, which this test keeps covering.
#[test]
fn depsky_blobs_with_blocks_but_no_records_are_reclaimed() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        "/metadata",
        OVER_BOUND,
        true,
    );
}

/// `alice` with a file `/f` she shares with `bob` and a copy source `/src`
/// of `src_chunks` chunks, on a put-faultable single cloud.
fn shared_file_env(src_chunks: usize) -> (FaultEnv, ScfsAgent) {
    let env = FaultEnv::new(Backend::Aws);
    let mut alice = env.deployment.mount("alice", test_config(), 1);
    alice.write_file("/f", &four_chunks(0x31)).unwrap();
    alice
        .write_file("/src", &distinct_chunks(0x50, src_chunks))
        .unwrap();
    alice
        .setfacl("/f", &"bob".into(), Permission::Write)
        .unwrap();
    (env, alice)
}

/// `bob`, mounted just after everything `alice` has done, opens `/f` for
/// writing — so no lock is held on it — and finds `expected`.
fn assert_bob_opens_for_writing(env: &FaultEnv, alice: &ScfsAgent, expected: &[u8]) {
    let mut bob = env.deployment.mount("bob", test_config(), 2);
    bob.sleep(alice.now().duration_since(bob.now()) + SimDuration::from_secs(1));
    let handle = bob
        .open("/f", OpenFlags::read_write())
        .expect("the commit released its lock");
    assert_eq!(bob.read(handle, 0, expected.len()).unwrap(), expected);
    bob.close(handle).unwrap();
}

/// A failed commit releases the write lock it was going to release. `alice`
/// holds the lock of a file she shares with `bob` when the cloud starts
/// failing the PUTs `failing_puts` names; `commit` is her blocking close or
/// manifest-only copy onto `/f`. It errors out, the anchor still names the
/// old version — and `bob` opens the file for writing at once, not a lease
/// (120 s) later: the handle is gone, so nothing could retry under the lock.
fn assert_failed_commit_releases_the_lock(
    failing_puts: &'static str,
    commit: impl FnOnce(&mut ScfsAgent) -> Result<(), ScfsError>,
) {
    // The copy source stores a manifest object: its copy has a PUT to fail.
    let (env, mut alice) = shared_file_env(OVER_BOUND);
    env.fail_puts_containing(Some(failing_puts));
    assert!(commit(&mut alice).is_err());
    env.fail_puts_containing(None);
    // The anchor is unchanged.
    assert_bob_opens_for_writing(&env, &alice, &four_chunks(0x31));
}

#[test]
fn failed_close_of_a_shared_file_releases_its_write_lock() {
    assert_failed_commit_releases_the_lock("scfs/chunks/", |alice| {
        alice.write_file("/f", &four_chunks(0x33))
    });
}

#[test]
fn failed_copy_onto_a_shared_file_releases_its_write_lock() {
    assert_failed_commit_releases_the_lock("/manifest/", |alice| alice.copy_file("/src", "/f"));
}

/// The inline twin: the manifest-only copy of a version whose manifest rides
/// in the tuple issues no cloud request, so a cloud failing every PUT cannot
/// fail it — it commits, and unlocks.
#[test]
fn an_inline_copy_commits_under_a_put_failing_cloud() {
    let (env, mut alice) = shared_file_env(4);
    env.fail_puts_containing(Some(""));
    alice.copy_file("/src", "/f").unwrap();
    assert_eq!(env.deployment.storage().pending_releases(), 0);
    assert_bob_opens_for_writing(&env, &alice, &four_chunks(0x50));
}

proptest! {
    /// Format → parse is the identity under both key styles, for chunks and
    /// for the manifests of any `{user}-f{n}` id, whichever of a DepSky
    /// unit's objects the key names; and neither style reads the other's.
    #[test]
    fn prop_blob_names_parse_back_from_their_keys(
        content in any::<u64>(),
        user in any::<u32>(),
        n in any::<u32>(),
        version in 1u64..9,
        slot in 0usize..7,
    ) {
        let hash = sha256(&content.to_le_bytes());
        let id = format!("u{user:x}_a.b-f{n}");
        for blob in [BlobName::Chunk(hash), BlobName::manifest(&id, hash)] {
            prop_assert_eq!(BlobName::parse(KeyStyle::Aws, &blob.key()).as_ref(), Some(&blob));
            prop_assert_eq!(BlobName::parse(KeyStyle::DepSky, &blob.key()), None);
            let unit = DepSkyClient::blob_unit(blob.base(), blob.hash());
            for object in ["metadata".to_string(), format!("v{version}/block{slot}")] {
                let key = format!("depsky/{unit}/{object}");
                prop_assert_eq!(BlobName::parse(KeyStyle::DepSky, &key).as_ref(), Some(&blob));
                prop_assert_eq!(BlobName::parse(KeyStyle::Aws, &key), None);
            }
        }
    }

    /// Journal replay is idempotent under arbitrary repeated delete faults:
    /// however the faults interleave across replay passes, once the cloud
    /// heals the journal drains, no blob is leaked, no retained version is
    /// damaged, and a further replay is a no-op. A version is drawn inline
    /// (four chunks) or over the bound (it stores a manifest object), and
    /// version `repeat` re-commits its predecessor's content, so two versions
    /// share a root.
    #[test]
    fn prop_journal_replay_is_idempotent_under_repeated_faults(
        versions in 2usize..5,
        keep in 1usize..3,
        over_bound in collection::vec(any::<bool>(), 4),
        repeat in 1usize..5,
        fault_pattern in collection::vec(any::<bool>(), 0..40),
        replay_passes in 1usize..4,
    ) {
        let (deployment, faulty) = faulty_deployment(Backend::Aws);
        let (storage, flaky) = (deployment.storage(), &faulty[0]);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let opts = TransferOptions::default();

        // f1 accumulates versions that share their leading chunks and vary
        // their last one; f2 shares f1's base content entirely.
        let mut roots = Vec::new();
        let mut contents: Vec<Vec<u8>> = Vec::new();
        let mut prev: Option<ChunkMap> = None;
        for v in 0..versions {
            let data = if v == repeat {
                contents[v - 1].clone()
            } else {
                let n = if over_bound[v] { OVER_BOUND } else { 4 };
                let mut data = distinct_chunks(0x20, n);
                data[(n - 1) * CHUNK..].fill(v as u8 ^ 0xAB);
                data
            };
            let map = ChunkMap::build(&data, CHUNK);
            let outcome = storage.write_version(
                &mut ctx, "f1", &data, &map, prev.as_ref(), v == 0, None, &opts,
            ).unwrap();
            roots.push(outcome.root_hash);
            contents.push(data);
            prev = Some(map);
        }
        let shared = four_chunks(0x20);
        let shared_map = ChunkMap::build(&shared, CHUNK);
        let o2 = storage.write_version(
            &mut ctx, "f2", &shared, &shared_map, None, true, None, &opts,
        ).unwrap();

        let removed = storage.delete_old_versions(&mut ctx, "f1", keep).unwrap();
        prop_assert_eq!(removed, versions.saturating_sub(keep));

        // Replay under scripted faults, several passes.
        flaky.script_failures(fault_pattern);
        for _ in 0..replay_passes {
            storage
                .replay_release_journal(&mut ctx, &JournalOpts::default())
                .unwrap();
            // Invariant: nothing reachable is ever lost mid-replay.
            let orphans = deployment.orphans();
            prop_assert!(orphans.is_empty(), "orphans mid-replay: {:?}", orphans);
        }

        // Heal and drain: a fault-free pass applies every pending entry.
        flaky.heal();
        let drained = storage
            .replay_release_journal(&mut ctx, &JournalOpts::default())
            .unwrap();
        prop_assert_eq!(drained.errors, 0);
        prop_assert_eq!(storage.pending_releases(), 0);

        // Retained versions of f1 and all of f2 are intact.
        for (root, data) in roots.iter().zip(&contents).skip(versions.saturating_sub(keep)) {
            prop_assert_eq!(&storage.read_version(&mut ctx, "f1", root, &opts).unwrap(), data);
        }
        prop_assert_eq!(
            storage.read_version(&mut ctx, "f2", &o2.root_hash, &opts).unwrap(),
            shared
        );
        let orphans = deployment.orphans();
        prop_assert!(orphans.is_empty(), "orphans after drain: {:?}", orphans);

        // Idempotence: one more replay does nothing at all.
        let noop = storage
            .replay_release_journal(&mut ctx, &JournalOpts::default())
            .unwrap();
        prop_assert_eq!(noop.attempted, 0);
    }
}
