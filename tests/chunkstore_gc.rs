//! Integration tests of per-object chunks and the two-phase release
//! journal:
//!
//! * a chunk belongs to its object: identical content written under a
//!   second file id (or by a second user) uploads that file's own chunks,
//!   on both the AWS and CoC backends, and deleting one file never reclaims
//!   a chunk another file's retained version names;
//! * every mount is its own backend instance, as every client runs its own
//!   agent: another client's mount that stores and collects content one
//!   mount committed leaves that mount's file readable, and the orphan
//!   audit over every instance finds nothing; nor does it when two mounts
//!   write one object in turn, each collecting after every close;
//! * with injected delete faults the GC reaches zero orphans within two
//!   retry cycles — asserted by the orphan-leak check, which lists every
//!   blob a `SimulatedCloud` actually stores and verifies each one is
//!   reachable from a retained version or a pending release-journal entry;
//! * journal replay is idempotent under arbitrary repeated delete faults
//!   (property-tested);
//! * the keys that audit parses are the keys the backends write: a blob
//!   name formats and parses back to itself under both key styles
//!   (property-tested);
//! * a version commit that fails part-way through its single upload wave —
//!   a chunk PUT beside a stored manifest, or either half of a DepSky blob —
//!   leaves the anchor untouched and is fully reclaimed by one replay; the
//!   commit of a version whose manifest rides in the tuple journals chunk
//!   intents only;
//! * a failed write's intents (plan order, manifest last) are cancelled by
//!   a commit of the same content, a failed delete is requeued and retried,
//!   and no key is deleted twice or while a retained version names it.

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use scfs_repro::cloud_store::error::StorageError;
use scfs_repro::cloud_store::providers::ProviderProfile;
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::cloud_store::types::{Acl, ObjectMeta, Permission};
use scfs_repro::depsky::register::DepSkyClient;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::backend::FileStorage;
use scfs_repro::scfs::chunkstore::{BlobName, JournalOpts, KeyStyle, ReplayReport};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::transfer::TransferOptions;
use scfs_repro::scfs::types::{ChunkMap, CutRule, OpenFlags};
use scfs_repro::scfs_crypto::{sha256, to_hex};
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
/// fault injector for the orphan-leak and failed-commit regressions. It logs
/// every delete it is asked for, and whether the key went.
struct FaultyCloud {
    inner: Arc<SimulatedCloud>,
    fail_pattern: Mutex<VecDeque<bool>>,
    failing_puts: Mutex<Option<&'static str>>,
    deletes: Mutex<Vec<(String, bool)>>,
}

impl FaultyCloud {
    fn new(inner: Arc<SimulatedCloud>) -> Self {
        FaultyCloud {
            inner,
            fail_pattern: Mutex::new(VecDeque::new()),
            failing_puts: Mutex::new(None),
            deletes: Mutex::new(Vec::new()),
        }
    }

    /// Every delete asked of this cloud so far, in order: the key, and
    /// whether it was deleted.
    fn deletes(&self) -> Vec<(String, bool)> {
        self.deletes.lock().unwrap().clone()
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
        let result = if fail {
            Err(StorageError::unavailable("injected delete fault"))
        } else {
            self.inner.delete(ctx, key)
        };
        let entry = (key.to_string(), result.is_ok());
        self.deletes.lock().unwrap().push(entry);
        result
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
/// or a pending release-journal entry of one of the deployment's backend
/// instances.
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

/// The chunk blobs `deployment`'s clouds store for the object `path`
/// names, however many objects of a DepSky unit each one is.
fn stored_chunks(deployment: &Deployment, fs: &mut ScfsAgent, path: &str) -> BTreeSet<BlobName> {
    let id = fs.stat(path).unwrap().storage_id;
    let style = match fs.storage().label() {
        "CoC" => KeyStyle::DepSky,
        _ => KeyStyle::Aws,
    };
    let keys = deployment
        .clouds
        .iter()
        .flat_map(|cloud| cloud.stored_keys(""));
    let blobs = keys.filter_map(|key| BlobName::parse(style, &key));
    blobs
        .filter(|blob| matches!(blob, BlobName::Chunk { .. }) && blob.id() == id)
        .collect()
}

/// Identical content under a second file of one mount is that file's own:
/// its four chunks upload again, under its id. (The tests' names predate
/// per-object chunks, when the second file uploaded nothing.)
fn assert_identical_content_under_a_second_file_uploads_its_own(backend: Backend, tag: u8) {
    let deployment = Deployment::instant(backend, 11);
    let mut fs = deployment.mount("alice", test_config(), 1);

    let data = four_chunks(tag);
    fs.write_file("/a", &data).unwrap();
    let first = fs.stats();
    assert_eq!(first.chunk_uploads, 4);
    assert_eq!(first.dedup_hits_cross_file, 0);

    fs.write_file("/b", &data).unwrap();
    let second = fs.stats();
    assert_eq!(
        second.chunk_uploads,
        first.chunk_uploads + 4,
        "a second file id uploads its own four chunks"
    );
    assert_eq!(second.dedup_hits_cross_file, 0);
    let a = stored_chunks(&deployment, &mut fs, "/a");
    let b = stored_chunks(&deployment, &mut fs, "/b");
    assert_eq!((a.len(), b.len()), (4, 4));
    let hashes =
        |blobs: &BTreeSet<BlobName>| -> Vec<_> { blobs.iter().map(|b| *b.hash()).collect() };
    assert_eq!(hashes(&a), hashes(&b), "the same content, stored twice");
    assert_eq!(fs.read_file("/b").unwrap(), data);
    assert_no_orphans(&deployment);
}

#[test]
fn identical_content_under_a_second_file_uploads_zero_chunks_aws() {
    assert_identical_content_under_a_second_file_uploads_its_own(Backend::Aws, 0);
}

#[test]
fn identical_content_under_a_second_file_uploads_zero_chunks_coc() {
    assert_identical_content_under_a_second_file_uploads_its_own(Backend::CloudOfClouds, 0x30);
}

#[test]
fn identical_content_from_a_second_user_uploads_zero_chunks() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut alice = deployment.mount("alice", test_config(), 1);
    let mut bob = deployment.mount("bob", test_config(), 2);

    let data = four_chunks(0x50);
    alice.write_file("/alice/doc", &data).unwrap();
    // Bob writes his *own private file* with identical bytes: it is his
    // object, and it stores its own four chunks.
    bob.write_file("/bob/doc", &data).unwrap();
    assert_eq!(bob.stats().chunk_uploads, 4, "no cross-user dedup");
    assert_eq!(bob.stats().dedup_hits_cross_file, 0);
    assert_eq!(bob.read_file("/bob/doc").unwrap(), data);
    assert_eq!(alice.read_file("/alice/doc").unwrap(), data);
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
    let kept = stored_chunks(&deployment, &mut fs, "/keep");
    assert_eq!(kept.len(), 4);
    fs.write_file("/kill", &data).unwrap();
    let id = fs.stat("/kill").unwrap().storage_id;
    assert_eq!(stored_chunks(&deployment, &mut fs, "/kill").len(), 4);
    fs.unlink("/kill").unwrap();
    // Any write past the 1-byte threshold triggers a GC cycle that fully
    // deletes /kill.
    fs.write_file("/trigger", b"x").unwrap();
    assert!(fs.stats().gc_runs >= 1);

    // /kill's chunks are gone, and /keep's are all still stored.
    assert_eq!(fs.read_file("/keep").unwrap(), data);
    assert_eq!(stored_chunks(&deployment, &mut fs, "/keep"), kept);
    let left = deployment.clouds[0].stored_keys(&format!("scfs/{id}/"));
    assert_eq!(left, Vec::<String>::new(), "/kill's blobs are reclaimed");
    assert_eq!(fs.storage().pending_releases(), 0);
    assert_no_orphans(&deployment);
}

/// Another client's agent — its own backend instance — stores content
/// that alice's instance committed, under bob's own path, and collects it:
/// bob's collector deletes bob's chunks, so a cold mount still reads all of
/// alice's file, and no blob is left that neither instance accounts for.
/// When every chunk lived in one namespace, bob's collector deleted the
/// shared chunks alice's file still named: `NotFound` on AWS,
/// `QuorumNotReached { needed: 2, obtained: 0 }` on the cloud-of-clouds.
fn assert_a_second_instance_collects_only_its_own_chunks(backend: Backend) {
    let deployment = Deployment::instant(backend, 11);
    let mut alice = deployment.mount("alice", test_config(), 1);
    let data = four_chunks(0x60);
    alice.write_file("/alice/doc", &data).unwrap();

    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    config.gc.versions_to_keep = 1;
    let mut bob = deployment.mount("bob", config, 2);
    bob.write_file("/bob/doc", &data).unwrap();
    bob.unlink("/bob/doc").unwrap();
    for i in 0..3u8 {
        bob.write_file(&format!("/bob/more-{i}"), &four_chunks(0x80 | i))
            .unwrap();
    }
    assert!(bob.stats().gc_runs >= 3);

    let mut reader = deployment.mount("alice", test_config(), 3);
    let drain = bob.background_drain_instant().max(alice.now());
    reader.sleep(drain.duration_since(reader.now()) + SimDuration::from_secs(1));
    assert_eq!(reader.read_file("/alice/doc").unwrap(), data);
    assert_no_orphans(&deployment);
}

#[test]
fn a_second_instance_collects_only_its_own_chunks_aws() {
    assert_a_second_instance_collects_only_its_own_chunks(Backend::Aws);
}

#[test]
fn a_second_instance_collects_only_its_own_chunks_coc() {
    assert_a_second_instance_collects_only_its_own_chunks(Backend::CloudOfClouds);
}

/// One object written through two instances: alice writes a file and grants
/// bob `Write`, bob rewrites it on his own mount, then alice rewrites it
/// again. Both mounts keep one version and collect after every close, so
/// alice's collector prunes under a version her instance never saw. A cold
/// mount still reads her last bytes, and no stored blob is one that no
/// instance accounts for.
fn assert_one_object_written_through_two_instances(backend: Backend) {
    const DOC: &str = "/shared/doc";
    let deployment = Deployment::instant(backend, 11);
    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    config.gc.versions_to_keep = 1;
    let mut alice = deployment.mount("alice", config.clone(), 1);
    let mut bob = deployment.mount("bob", config, 2);
    alice.write_file(DOC, &four_chunks(0x91)).unwrap();
    alice
        .setfacl(DOC, &"bob".into(), Permission::Write)
        .unwrap();
    bob.sleep(alice.now().duration_since(bob.now()) + SimDuration::from_secs(1));
    bob.write_file(DOC, &four_chunks(0x92)).unwrap();
    alice.sleep(bob.now().duration_since(alice.now()) + SimDuration::from_secs(1));
    alice.write_file(DOC, &four_chunks(0x93)).unwrap();
    assert!(alice.stats().gc_runs >= 2 && bob.stats().gc_runs >= 1);

    let mut reader = deployment.mount("alice", test_config(), 3);
    let drain = alice
        .background_drain_instant()
        .max(bob.background_drain_instant());
    reader.sleep(drain.duration_since(reader.now()) + SimDuration::from_secs(1));
    assert_eq!(reader.read_file(DOC).unwrap(), four_chunks(0x93));
    assert_no_orphans(&deployment);
}

#[test]
fn one_object_written_through_two_instances_aws() {
    assert_one_object_written_through_two_instances(Backend::Aws);
}

#[test]
fn one_object_written_through_two_instances_coc() {
    assert_one_object_written_through_two_instances(Backend::CloudOfClouds);
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
    assert_eq!(fs.storage().pending_releases(), 0);
    assert_no_orphans(&deployment);
    let mut clock = Clock::new();
    clock.advance_to(fs.now());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let tuple = deployment.coordinator().get(&mut ctx, "/scfs/meta/doomed");
    assert!(tuple.is_err(), "a tuple was left behind: {tuple:?}");
}

/// Only the unlinking agent knows its handles of the file, but a write
/// handle on another mount — here a grantee's — commits with a `cas` on the
/// tuple it opened: the unlink refuses it. Bob's close returns as a close of
/// an unlinked file does, committing nothing; the version it uploaded goes
/// to his release journal, and the name stays gone.
#[test]
fn a_close_on_another_mount_after_unlink_anchors_no_tuple() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut config = test_config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    let mut alice = deployment.mount("alice", config.clone(), 3);
    let mut bob = deployment.mount("bob", config, 4);

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
    assert!(
        bob.storage().pending_releases() > 0,
        "bob's version is released"
    );
    // Past the 1-byte threshold: both collectors run.
    alice.sleep(bob.now().duration_since(alice.now()));
    alice.write_file("/trigger", b"x").unwrap();
    bob.write_file("/trigger-b", b"x").unwrap();
    assert!(alice.stats().gc_runs >= 2);
    assert_eq!(bob.storage().pending_releases(), 0);
    assert_no_orphans(&deployment);
    // A cold mount: nothing of the file is in its caches.
    let mut reader = deployment.mount("bob", test_config(), 5);
    reader.sleep(alice.now().duration_since(reader.now()) + SimDuration::from_secs(2));
    let stat = reader.stat("/shared/doc");
    assert!(matches!(stat, Err(ScfsError::NotFound { .. })), "{stat:?}");
}

/// A grantee's write handle outlives the unlink of its file and the create
/// of a new file under the name: its close's `cas` is refused, the tuple it
/// re-reads names another object, and the close commits nothing over it.
#[test]
fn a_close_after_the_name_was_created_again_leaves_the_new_file() {
    let deployment = Deployment::instant(Backend::Aws, 12);
    let mut alice = deployment.mount("alice", test_config(), 3);
    let mut bob = deployment.mount("bob", test_config(), 4);

    alice.write_file("/shared/doc", &four_chunks(0x41)).unwrap();
    alice
        .setfacl("/shared/doc", &"bob".into(), Permission::Write)
        .unwrap();
    bob.sleep(SimDuration::from_secs(1));
    let h = bob.open("/shared/doc", OpenFlags::read_write()).unwrap();
    bob.write(h, 0, &four_chunks(0x42)).unwrap();
    alice.sleep(bob.now().duration_since(alice.now()));
    alice.unlink("/shared/doc").unwrap();
    alice.write_file("/shared/doc", b"new").unwrap();
    alice
        .setfacl("/shared/doc", &"bob".into(), Permission::Write)
        .unwrap();
    bob.sleep(alice.now().duration_since(bob.now()));
    bob.close(h).unwrap();
    assert!(
        bob.storage().pending_releases() > 0,
        "bob's version is released"
    );
    alice.sleep(bob.now().duration_since(alice.now()) + SimDuration::from_secs(2));
    assert_eq!(alice.read_file("/shared/doc").unwrap(), b"new");
    assert_eq!(alice.stat("/shared/doc").unwrap().version_count, 1);
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
    assert!(fs.storage().pending_releases() > 0);
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
    assert_eq!(fs.storage().pending_releases(), 0, "journal fully drained");
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
    assert_eq!(fs.storage().pending_releases(), 0);
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
    let mut fs = env.deployment.mount("alice", test_config(), 1);
    let storage = fs.storage().clone();
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
    assert_failed_commit_is_reclaimed(FaultEnv::new(Backend::Aws), "/chunks/", OVER_BOUND, true);
}

#[test]
fn failed_chunk_put_beside_a_stored_manifest_is_reclaimed_coc() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        ".chunks|",
        OVER_BOUND,
        true,
    );
}

/// The inline twins: a one-PUT close whose one PUT fails. Nothing landed,
/// and the journal holds the chunk's intent and no manifest's.
#[test]
fn failed_one_put_close_journals_no_manifest_intent_aws() {
    assert_failed_commit_is_reclaimed(FaultEnv::new(Backend::Aws), "/chunks/", 1, false);
}

#[test]
fn failed_one_put_close_journals_no_manifest_intent_coc() {
    assert_failed_commit_is_reclaimed(FaultEnv::new(Backend::CloudOfClouds), ".chunks|", 1, false);
}

/// Named for when a manifest stored a metadata record beside its blocks and
/// could land the record alone; no blob has a record now. No block of the
/// wave lands, so nothing lands at all, and the journal still holds every
/// intent of the failed version.
#[test]
fn depsky_blobs_with_records_but_no_blocks_are_reclaimed() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        "/block",
        OVER_BOUND,
        false,
    );
}

/// Blocks and no record, as every blob is stored now, landing in part: slot
/// 1's PUT fails, so each chunk and the manifest land two blocks of three
/// and the close fails its write quorum. Nothing but a blob's address and
/// the pool's layout says where the landed blocks are, and the journal's
/// deletes find them there.
#[test]
fn depsky_blobs_with_blocks_but_no_records_are_reclaimed() {
    assert_failed_commit_is_reclaimed(
        FaultEnv::new(Backend::CloudOfClouds),
        "/v1/block1",
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
/// copy onto `/f`. It errors out, the anchor still names the
/// old version — and `bob` opens the file for writing at once, not a lease
/// (120 s) later: the handle is gone, so nothing could retry under the lock.
fn assert_failed_commit_releases_the_lock(
    failing_puts: &'static str,
    commit: impl FnOnce(&mut ScfsAgent) -> Result<(), ScfsError>,
) {
    // The copy source stores a manifest object: so does its copy, whose
    // manifest PUT is the one to fail when the chunks land.
    let (env, mut alice) = shared_file_env(OVER_BOUND);
    env.fail_puts_containing(Some(failing_puts));
    assert!(commit(&mut alice).is_err());
    env.fail_puts_containing(None);
    // The anchor is unchanged.
    assert_bob_opens_for_writing(&env, &alice, &four_chunks(0x31));
}

#[test]
fn failed_close_of_a_shared_file_releases_its_write_lock() {
    assert_failed_commit_releases_the_lock("/chunks/", |alice| {
        alice.write_file("/f", &four_chunks(0x33))
    });
}

#[test]
fn failed_copy_onto_a_shared_file_releases_its_write_lock() {
    assert_failed_commit_releases_the_lock("/manifest/", |alice| alice.copy_file("/src", "/f"));
}

/// The object of the journal script below, its two versions — each over
/// the inline bound, so each stores a manifest object — and their maps.
const SCRIPTED: &str = "f";

fn scripted_versions() -> [(Vec<u8>, ChunkMap); 2] {
    [0x20, 0x40].map(|tag| {
        let data = distinct_chunks(tag, OVER_BOUND);
        let map = ChunkMap::build(&data, CHUNK);
        (data, map)
    })
}

/// A bare backend instance on a fresh `backend` deployment over
/// [`FaultyCloud`]s, with those clouds and a clock past its writes.
type ScriptedEnv = (
    Deployment,
    Arc<dyn FileStorage>,
    Vec<Arc<FaultyCloud>>,
    Clock,
);

/// Commits the first scripted version through a bare backend instance of a
/// fresh `backend` deployment over [`FaultyCloud`]s, then writes the second
/// and fails it mid-wave: every PUT of its third chunk fails, and the rest
/// of the wave lands.
fn commit_then_fail_a_write(backend: Backend) -> ScriptedEnv {
    let (deployment, faulty) = faulty_deployment(backend);
    let [(v0, map0), (v1, map1)] = scripted_versions();
    let storage = deployment.instance();
    let opts = TransferOptions::default();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    storage
        .write_version(&mut ctx, SCRIPTED, &v0, &map0, None, true, None, &opts)
        .unwrap();
    let needle: &'static str = Box::leak(to_hex(&map1.chunks()[2]).into_boxed_str());
    for cloud in &faulty {
        cloud.fail_puts_containing(Some(needle));
    }
    let failed = storage.write_version(
        &mut ctx,
        SCRIPTED,
        &v1,
        &map1,
        Some(&map0),
        false,
        None,
        &opts,
    );
    assert!(failed.is_err());
    for cloud in &faulty {
        cloud.fail_puts_containing(None);
    }
    (deployment, storage, faulty, clock)
}

fn replay_once(storage: &dyn FileStorage, ctx: &mut OpCtx<'_>) -> ReplayReport {
    storage
        .replay_release_journal(ctx, &JournalOpts::default())
        .unwrap()
}

/// The journal paths a failed write and a prune take, on `backend`,
/// through the storage seam: a write fails mid-wave; the same content then
/// commits before any replay; the version before it is pruned, and a replay
/// meets one failing delete.
///
/// * The failed write leaves an intent per chunk of its plan, in plan
///   order, then one for its manifest object. The queue is read on a twin
///   deployment, identical up to the failure, by a fault-free replay, which
///   deletes in queue order.
/// * The commit of the same content cancels every one of them.
/// * The failing delete is counted, requeued and retried by the next
///   replay: on the cloud-of-clouds, one holder's failed block delete
///   fails the blob's.
/// * No key is ever deleted twice, no key the retained version names is
///   deleted at all, and a fault-free drain leaves nothing pending and no
///   orphan.
fn assert_the_journal_paths_a_failed_write_and_a_prune_take(backend: Backend) {
    let style = match backend {
        Backend::Aws => KeyStyle::Aws,
        _ => KeyStyle::DepSky,
    };
    let [(_, map0), (v1, map1)] = scripted_versions();
    let root1 = sha256(&map1.encode());
    let mut intents: Vec<BlobName> = map1
        .chunks()
        .iter()
        .map(|hash| BlobName::chunk(SCRIPTED, *hash))
        .collect();
    intents.push(BlobName::manifest(SCRIPTED, root1));

    let (_, twin, faulty, mut clock) = commit_then_fail_a_write(backend);
    assert_eq!(twin.pending_releases(), intents.len());
    replay_once(twin.as_ref(), &mut OpCtx::new(&mut clock, "alice".into()));
    let mut queue: Vec<BlobName> = faulty[0]
        .deletes()
        .iter()
        .filter_map(|(key, _)| BlobName::parse(style, key))
        .collect();
    queue.dedup();
    assert_eq!(queue, intents, "plan order, the manifest last");

    let (deployment, storage, faulty, mut clock) = commit_then_fail_a_write(backend);
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    assert_no_orphans(&deployment);
    let opts = TransferOptions::default();
    storage
        .write_version(
            &mut ctx,
            SCRIPTED,
            &v1,
            &map1,
            Some(&map0),
            false,
            None,
            &opts,
        )
        .unwrap();
    assert_eq!(storage.pending_releases(), 0, "the commit cancels them all");

    assert_eq!(
        storage.delete_old_versions(&mut ctx, SCRIPTED, 1).unwrap(),
        1
    );
    let released = OVER_BOUND as u64 + 1;
    assert_eq!(storage.pending_releases() as u64, released);
    faulty[0].script_failures([true]);
    let report = replay_once(storage.as_ref(), &mut ctx);
    assert_eq!(
        (report.attempted, report.deleted, report.errors),
        (released, released - 1, 1)
    );
    assert_eq!(
        storage.pending_releases(),
        1,
        "the failed delete is requeued"
    );
    assert_no_orphans(&deployment);
    let drained = replay_once(storage.as_ref(), &mut ctx);
    assert_eq!((drained.errors, drained.retried), (0, 1));
    assert_eq!(storage.pending_releases(), 0);
    assert_no_orphans(&deployment);

    let retained: BTreeSet<BlobName> = intents.into_iter().collect();
    let mut deletes = 0;
    for cloud in &faulty {
        let deleted: Vec<String> = cloud
            .deletes()
            .into_iter()
            .filter_map(|(key, gone)| gone.then_some(key))
            .collect();
        deletes += deleted.len();
        let distinct: BTreeSet<&String> = deleted.iter().collect();
        assert_eq!(
            distinct.len(),
            deleted.len(),
            "a key deleted twice: {deleted:?}"
        );
        for key in &deleted {
            let blob = BlobName::parse(style, key);
            assert!(
                !blob.is_some_and(|blob| retained.contains(&blob)),
                "{key} is named by the retained version"
            );
        }
    }
    assert!(deletes > 0, "the prune deleted something");
    assert_eq!(
        read_back(storage.as_ref(), &mut ctx, SCRIPTED, &map1).unwrap(),
        v1
    );
}

#[test]
fn the_journal_paths_a_failed_write_and_a_prune_take_aws() {
    assert_the_journal_paths_a_failed_write_and_a_prune_take(Backend::Aws);
}

#[test]
fn the_journal_paths_a_failed_write_and_a_prune_take_coc() {
    assert_the_journal_paths_a_failed_write_and_a_prune_take(Backend::CloudOfClouds);
}

/// A failed block delete on the cloud-of-clouds fails the blob's delete,
/// so replay requeues the entry. The retry asks every holder again; those
/// that already deleted their block answer `NotFound`, and nothing is left.
#[test]
fn a_failed_block_delete_on_the_cloud_of_clouds_is_requeued_and_leaks_nothing() {
    let (deployment, faulty) = faulty_deployment(Backend::CloudOfClouds);
    let storage = deployment.instance();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let data = four_chunks(0x61);
    let map = ChunkMap::build(&data, CHUNK);
    let opts = TransferOptions::default();
    storage
        .write_version(&mut ctx, "f", &data, &map, None, true, None, &opts)
        .unwrap();
    storage.delete_all(&mut ctx, "f").unwrap();
    faulty[0].script_failures([true]);
    let report = replay_once(storage.as_ref(), &mut ctx);
    assert_eq!((report.deleted, report.errors), (3, 1));
    assert_eq!(
        storage.pending_releases(),
        1,
        "the failed delete is requeued"
    );
    assert_no_orphans(&deployment);
    let drained = replay_once(storage.as_ref(), &mut ctx);
    assert_eq!(
        (drained.deleted, drained.retried, drained.errors),
        (1, 1, 0)
    );
    assert_eq!(storage.pending_releases(), 0);
    assert_eq!(deployment.orphans(), Vec::<String>::new());
}

proptest! {
    /// Format → parse is the identity under both key styles, for the chunks
    /// and the manifests of any `{user}-f{n}` id, whichever of a DepSky
    /// unit's objects the key names; a chunk and a manifest of one id and
    /// hash have different keys; and neither style reads the other's.
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
        let (chunk, manifest) = (BlobName::chunk(&id, hash), BlobName::manifest(&id, hash));
        prop_assert_ne!(chunk.key(), manifest.key());
        prop_assert_ne!(chunk.base(), manifest.base());
        for blob in [chunk, manifest] {
            prop_assert_eq!(BlobName::parse(KeyStyle::Aws, &blob.key()).as_ref(), Some(&blob));
            prop_assert_eq!(BlobName::parse(KeyStyle::DepSky, &blob.key()), None);
            prop_assert_eq!(blob.id(), id.as_str());
            let unit = DepSkyClient::blob_unit(&blob.base(), blob.hash());
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
        let (storage, flaky) = (deployment.instance(), &faulty[0]);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let opts = TransferOptions::default();

        // f1 accumulates versions that share their leading chunks and vary
        // their last one; f2 shares f1's base content entirely.
        let mut maps = Vec::new();
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
            storage.write_version(
                &mut ctx, "f1", &data, &map, prev.as_ref(), v == 0, None, &opts,
            ).unwrap();
            maps.push(map.clone());
            contents.push(data);
            prev = Some(map);
        }
        let shared = four_chunks(0x20);
        let shared_map = ChunkMap::build(&shared, CHUNK);
        storage.write_version(
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
        for (map, data) in maps.iter().zip(&contents).skip(versions.saturating_sub(keep)) {
            prop_assert_eq!(&read_back(storage.as_ref(), &mut ctx, "f1", map).unwrap(), data);
        }
        prop_assert_eq!(
            read_back(storage.as_ref(), &mut ctx, "f2", &shared_map).unwrap(),
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
