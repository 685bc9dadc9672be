//! Where a version's manifest lives, end to end on both backends: a version
//! whose encoded chunk map rides in the metadata tuple
//! (`scfs::types::manifest_rides_inline`) stores **no** manifest object, so
//!
//! * the clouds' raw key listings hold chunks only, plus one manifest object
//!   per version whose map is over the bound — for fixed-size maps of 1, 12
//!   and 13 chunks and content-defined maps of 9 and 10;
//! * a cold mount through a second backend instance reads such a file with
//!   chunk GETs alone;
//! * a file that crosses the bound and comes back leaves no manifest object
//!   behind after GC, and the collector never deletes one that was never
//!   stored;
//! * `bytes_uploaded` counts what a PUT carried, and the manifest-only copy
//!   of an inline version is no cloud request at all;
//! * `setfacl` tags the manifest objects that exist and nothing else;
//! * a tuple whose writer stripped the inline manifest of an at-or-below-bound
//!   version fails closed on a cold reader;
//! * on the paper's cloud-of-clouds a chunk is its three blocks and nothing
//!   else — three PUTs to write, one round of three GETs to read cold, three
//!   DELETEs to collect, and no record cached — while a manifest object is
//!   a DepSky unit with a record: seven PUTs, and the only record GETs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use scfs_repro::cloud_store::error::StorageError;
use scfs_repro::cloud_store::providers::ProviderProfile;
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::cloud_store::types::{Acl, ObjectMeta, Permission};
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::chunkstore::JournalOpts;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::transfer::TransferOptions;
use scfs_repro::scfs::types::{manifest_rides_inline, ChunkMap, CutRule, FileMetadata, OpenFlags};
use scfs_repro::scfs_crypto::to_hex;
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{Backend, Deployment, DeploymentSpec, Plane, Providers};

const CHUNK: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Get,
    Head,
    Delete,
    List,
    SetAcl,
    GetAcl,
}

/// An object store that logs the kind and key of every request it forwards.
struct Recorder {
    inner: Arc<SimulatedCloud>,
    log: Mutex<Vec<(Op, String)>>,
}

impl Recorder {
    fn note(&self, op: Op, key: &str) {
        self.log.lock().unwrap().push((op, key.to_string()));
    }
}

impl ObjectStore for Recorder {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn profile(&self) -> &ProviderProfile {
        self.inner.profile()
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.note(Op::Put, key);
        self.inner.put(ctx, key, data)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        self.note(Op::Get, key);
        self.inner.get(ctx, key)
    }

    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError> {
        self.note(Op::Head, key);
        self.inner.head(ctx, key)
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError> {
        self.note(Op::Delete, key);
        self.inner.delete(ctx, key)
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.note(Op::List, prefix);
        self.inner.list(ctx, prefix)
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), StorageError> {
        self.note(Op::SetAcl, key);
        self.inner.set_acl(ctx, key, acl)
    }

    fn get_acl(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Acl, StorageError> {
        self.note(Op::GetAcl, key);
        self.inner.get_acl(ctx, key)
    }
}

/// The SCFS blob a cloud key belongs to, by the hex of its content hash.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Blob {
    Chunk(String),
    Manifest(String),
}

/// Parses a single-cloud key (`scfs/chunks/{hex}`, `scfs/{id}/manifest/{hex}`)
/// or a DepSky one (`depsky/{unit}/…`, units `chunks|{hex}` and `{id}|{hex}`).
fn blob_of(key: &str) -> Blob {
    if let Some(rest) = key.strip_prefix("scfs/") {
        return match rest.strip_prefix("chunks/") {
            Some(hex) => Blob::Chunk(hex.to_string()),
            None => {
                let (_, hex) = rest.split_once("/manifest/").expect("an SCFS key");
                Blob::Manifest(hex.to_string())
            }
        };
    }
    let rest = key.strip_prefix("depsky/").expect("an SCFS key");
    let unit = rest.split('/').next().expect("a DepSky unit");
    match unit.split_once('|').expect("a base|hash unit") {
        ("chunks", hex) => Blob::Chunk(hex.to_string()),
        (_, hex) => Blob::Manifest(hex.to_string()),
    }
}

fn chunks_of(map: &ChunkMap) -> BTreeSet<Blob> {
    let unique = map.unique_chunks();
    unique.iter().map(|h| Blob::Chunk(to_hex(h))).collect()
}

fn manifest_of(map: &ChunkMap) -> Blob {
    Blob::Manifest(to_hex(&map.root_hash()))
}

/// The blobs the requests of kind `op` in `log` named, one per request.
fn blobs(log: &[(Op, String)], op: Op) -> Vec<Blob> {
    let of_kind = log.iter().filter(|(kind, _)| *kind == op);
    of_kind.map(|(_, key)| blob_of(key)).collect()
}

/// One deployment with every cloud request logged. `deployment` is its
/// first backend instance; [`Deployment::second_instance`] is a second
/// process — empty registry, empty chunk store, same buckets, same log.
struct Env {
    deployment: Deployment,
    recorders: Vec<Arc<Recorder>>,
}

impl Env {
    fn new(coc: bool) -> Env {
        let backend = if coc {
            Backend::CloudOfClouds
        } else {
            Backend::Aws
        };
        let spec = Deployment::on(backend)
            .providers(Providers::Instantaneous)
            .plane(Plane::Instantaneous);
        Env::build(spec)
    }

    fn build(spec: DeploymentSpec) -> Env {
        let mut recorders = Vec::new();
        let deployment = spec.build_behind(11, |sim| {
            let recorder = Arc::new(Recorder {
                inner: sim,
                log: Mutex::new(Vec::new()),
            });
            recorders.push(recorder.clone());
            recorder
        });
        Env {
            deployment,
            recorders,
        }
    }

    /// A mount through a backend instance of its own, its clock past
    /// everything `after` has done.
    fn cold_mount(&self, user: &str, config: &ScfsConfig, after: &ScfsAgent) -> ScfsAgent {
        let second = self.deployment.second_instance();
        let mut agent = second.mount(user, config.clone(), 2);
        agent.sleep(after.now().duration_since(agent.now()) + SimDuration::from_secs(1));
        agent
    }

    /// The distinct blobs the clouds' raw key listings hold.
    fn stored(&self) -> BTreeSet<Blob> {
        let clouds = self.deployment.clouds.iter();
        let keys = clouds.flat_map(|sim| sim.stored_keys(""));
        keys.map(|key| blob_of(&key)).collect()
    }

    /// Drains the request log of every cloud.
    fn take_log(&self) -> Vec<(Op, String)> {
        self.take_logs().into_iter().flatten().collect()
    }

    /// Drains the request log of each cloud, in provider order.
    fn take_logs(&self) -> Vec<Vec<(Op, String)>> {
        let logs = self.recorders.iter();
        logs.map(|cloud| std::mem::take(&mut *cloud.log.lock().unwrap()))
            .collect()
    }
}

/// A chunk layout and count: which chunker cuts the file, into how many.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Fixed(usize),
    Cdc(usize),
}

impl Shape {
    fn chunks(self) -> usize {
        match self {
            Shape::Fixed(n) | Shape::Cdc(n) => n,
        }
    }

    /// 512 bytes hold the encoded map of 12 fixed-size or 9 content-defined
    /// chunks.
    fn over_bound(self) -> bool {
        match self {
            Shape::Fixed(n) => n > 12,
            Shape::Cdc(n) => n > 9,
        }
    }

    fn config(self) -> ScfsConfig {
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunking = CutRule::Fixed(CHUNK);
        match self {
            Shape::Fixed(_) => config,
            Shape::Cdc(_) => config.with_cdc(),
        }
    }

    /// Random bytes this shape's chunker cuts into exactly `chunks()`
    /// distinct chunks: a content-defined payload ends on the boundary of
    /// its n-th chunk, which a prefix cuts the same way.
    fn payload(self, seed: u64) -> Vec<u8> {
        let n = self.chunks();
        let mut data = DetRng::new(seed).bytes((n + 1) * 4 * CHUNK);
        let len = match self {
            Shape::Fixed(_) => n * CHUNK,
            Shape::Cdc(_) => self.config().chunk_map(&data).byte_range(n - 1).end,
        };
        data.truncate(len);
        let map = self.config().chunk_map(&data);
        assert_eq!(map.chunk_count(), n, "{self:?}");
        assert_eq!(map.unique_chunks().len(), n, "{self:?}");
        assert_eq!(
            manifest_rides_inline(&map.encode()),
            !self.over_bound(),
            "{self:?}: {} manifest bytes",
            map.encode().len()
        );
        data
    }
}

fn assert_manifests_are_stored_iff_over_the_bound(coc: bool) {
    let shapes = [
        Shape::Fixed(1),
        Shape::Fixed(12),
        Shape::Fixed(13),
        Shape::Cdc(9),
        Shape::Cdc(10),
    ];
    for shape in shapes {
        let env = Env::new(coc);
        let config = shape.config();
        let (v1, v2) = (shape.payload(1), shape.payload(2));
        let (m1, m2) = (config.chunk_map(&v1), config.chunk_map(&v2));
        let mut writer = env.deployment.mount("alice", config.clone(), 1);
        writer.write_file("/f", &v1).unwrap();
        writer.write_file("/f", &v2).unwrap();

        // Both versions are retained: their chunks, and a manifest object
        // each only when the map is over the bound.
        let mut expected: BTreeSet<Blob> = chunks_of(&m1);
        expected.extend(chunks_of(&m2));
        let mut manifest_bytes = 0;
        if shape.over_bound() {
            expected.extend([manifest_of(&m1), manifest_of(&m2)]);
            manifest_bytes = m1.encode().len() + m2.encode().len();
        }
        assert_eq!(env.stored(), expected, "{shape:?}");
        assert_eq!(
            writer.stats().bytes_uploaded,
            (v1.len() + v2.len() + manifest_bytes) as u64,
            "{shape:?}"
        );

        // A second process: the tuple is all it has, and all it needs.
        let mut reader = env.cold_mount("alice", &config, &writer);
        env.take_log();
        assert_eq!(reader.read_file("/f").unwrap(), v2, "{shape:?}");
        let log = env.take_log();
        let gets = blobs(&log, Op::Get);
        assert_eq!(gets.len(), log.len(), "{shape:?}: a read only GETs");
        let mut fetched = chunks_of(&m2);
        if shape.over_bound() {
            fetched.insert(manifest_of(&m2));
        }
        assert_eq!(
            gets.iter().cloned().collect::<BTreeSet<_>>(),
            fetched,
            "{shape:?}"
        );
        assert_eq!(
            reader.stats().chunk_downloads,
            shape.chunks() as u64,
            "{shape:?}"
        );
        if !coc {
            // One request per blob on a single cloud: `cloud.gets` is the
            // chunks fetched, +1 only over the bound.
            assert_eq!(gets.len(), fetched.len(), "{shape:?}");
        }
    }
}

#[test]
fn manifests_are_stored_iff_the_map_is_over_the_bound_aws() {
    assert_manifests_are_stored_iff_over_the_bound(false);
}

#[test]
fn manifests_are_stored_iff_the_map_is_over_the_bound_coc() {
    assert_manifests_are_stored_iff_over_the_bound(true);
}

/// The GC half of `the_inline_manifest_follows_the_file_across_the_size_bound`
/// (the agent's unit test of the tuple and the cold open): two chunks, then
/// thirteen, then one, a collection after every close with one version kept.
fn assert_crossing_the_bound_and_back_leaves_no_manifest_behind(coc: bool) {
    let env = Env::new(coc);
    let mut config = Shape::Fixed(1).config();
    config.gc.written_bytes_threshold = Bytes::new(1);
    config.gc.versions_to_keep = 1;
    let mut fs = env.deployment.mount("alice", config.clone(), 1);
    let versions = [Shape::Fixed(2), Shape::Fixed(13), Shape::Fixed(1)];
    let versions: Vec<Vec<u8>> = (1..).zip(versions).map(|(i, s)| s.payload(i)).collect();
    for data in &versions {
        fs.write_file("/f", data).unwrap();
    }
    assert_eq!(fs.stats().gc_runs, 3);
    assert_eq!(fs.stats().gc_errors, 0);
    let mut clock = Clock::starting_at(fs.background_drain_instant());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let storage = env.deployment.storage();
    let replayed = storage
        .replay_release_journal(&mut ctx, &JournalOpts::default())
        .unwrap();
    assert_eq!(replayed.errors, 0);
    assert_eq!(storage.pending_releases(), 0);

    let maps: Vec<ChunkMap> = versions.iter().map(|v| config.chunk_map(v)).collect();
    assert_eq!(
        env.stored(),
        chunks_of(&maps[2]),
        "the live version's chunk and no manifest object"
    );
    assert_eq!(env.deployment.orphans(), Vec::<String>::new());

    // Every DELETE named a blob that had been stored: the two dead
    // versions' chunks and the one manifest object the file ever had.
    let mut dead = chunks_of(&maps[0]);
    dead.extend(chunks_of(&maps[1]));
    dead.insert(manifest_of(&maps[1]));
    let deleted = blobs(&env.take_log(), Op::Delete);
    assert_eq!(deleted.iter().cloned().collect::<BTreeSet<_>>(), dead);
    if !coc {
        assert_eq!(deleted.len(), dead.len());
        assert_eq!(
            env.deployment.clouds[0].metrics().snapshot().deletes,
            dead.len() as u64,
            "no DELETE for a manifest that was never stored"
        );
    }
    assert_eq!(fs.read_file("/f").unwrap(), versions[2]);
}

#[test]
fn crossing_the_bound_and_back_leaves_no_manifest_behind_aws() {
    assert_crossing_the_bound_and_back_leaves_no_manifest_behind(false);
}

#[test]
fn crossing_the_bound_and_back_leaves_no_manifest_behind_coc() {
    assert_crossing_the_bound_and_back_leaves_no_manifest_behind(true);
}

/// `WriteOutcome::bytes_uploaded`, hence `AgentStats::bytes_uploaded`, used
/// to add the manifest's length to every commit, stored or not.
fn assert_bytes_uploaded_counts_what_a_put_carried(coc: bool) {
    let env = Env::new(coc);
    let config = Shape::Fixed(1).config();
    let mut fs = env.deployment.mount("alice", config.clone(), 1);

    let one = Shape::Fixed(1).payload(1);
    fs.write_file("/one", &one).unwrap();
    assert_eq!(fs.stats().bytes_uploaded, one.len() as u64);

    let sixteen = Shape::Fixed(16).payload(2);
    let manifest = config.chunk_map(&sixteen).encode();
    fs.write_file("/sixteen", &sixteen).unwrap();
    let uploaded = fs.stats().bytes_uploaded;
    assert_eq!(
        uploaded,
        (one.len() + sixteen.len() + manifest.len()) as u64,
        "a stored manifest is PUT payload"
    );

    // The manifest-only copy of an inline version: chunk references and an
    // anchor write, no cloud request.
    env.take_log();
    fs.copy_file("/one", "/copy").unwrap();
    assert_eq!(fs.stats().bytes_uploaded, uploaded);
    assert_eq!(env.take_log(), Vec::new());
    assert_eq!(fs.read_file("/copy").unwrap(), one);
    // Of a stored one: its manifest again, under the destination's id.
    fs.copy_file("/sixteen", "/copy16").unwrap();
    assert_eq!(fs.stats().bytes_uploaded, uploaded + manifest.len() as u64);
}

#[test]
fn bytes_uploaded_counts_what_a_put_carried_aws() {
    assert_bytes_uploaded_counts_what_a_put_carried(false);
}

#[test]
fn bytes_uploaded_counts_what_a_put_carried_coc() {
    assert_bytes_uploaded_counts_what_a_put_carried(true);
}

fn assert_setfacl_tags_only_the_manifests_that_exist(coc: bool) {
    let env = Env::new(coc);
    let config = Shape::Fixed(1).config();
    let mut alice = env.deployment.mount("alice", config.clone(), 1);
    let bob = "bob".into();

    // Every retained version inline: the grant is a tuple update alone, and
    // the grantee reads through the tuple and the chunk-store principal.
    let (v1, v2) = (Shape::Fixed(2).payload(1), Shape::Fixed(3).payload(2));
    alice.write_file("/small", &v1).unwrap();
    alice.write_file("/small", &v2).unwrap();
    env.take_log();
    alice.setfacl("/small", &bob, Permission::Read).unwrap();
    assert_eq!(env.take_log(), Vec::new(), "nothing in the cloud to tag");
    let mut grantee = env.cold_mount("bob", &config, &alice);
    assert_eq!(grantee.read_file("/small").unwrap(), v2);

    // One inline and one over-bound retained version: one object to tag,
    // and the grantee's manifest GET is admitted by that tag.
    let (small, big) = (Shape::Fixed(1).payload(3), Shape::Fixed(13).payload(4));
    alice.write_file("/mixed", &small).unwrap();
    alice.write_file("/mixed", &big).unwrap();
    env.take_log();
    alice.setfacl("/mixed", &bob, Permission::Read).unwrap();
    let log = env.take_log();
    let tagged = blobs(&log, Op::SetAcl);
    assert_eq!(tagged.len(), log.len(), "ACL updates only");
    let tagged: BTreeSet<Blob> = tagged.into_iter().collect();
    assert_eq!(tagged, [manifest_of(&config.chunk_map(&big))].into());
    if !coc {
        assert_eq!(log.len(), 1);
    }
    let mut grantee = env.cold_mount("bob", &config, &alice);
    assert_eq!(grantee.read_file("/mixed").unwrap(), big);
}

#[test]
fn setfacl_tags_only_the_manifests_that_exist_aws() {
    assert_setfacl_tags_only_the_manifests_that_exist(false);
}

#[test]
fn setfacl_tags_only_the_manifests_that_exist_coc() {
    assert_setfacl_tags_only_the_manifests_that_exist(true);
}

/// The tuple is the only copy of an inline manifest. An authorised writer
/// can publish a well-formed tuple without it; a reader with no registry
/// record of the version then looks for a manifest object that was never
/// stored, exhausts the anchor's retry budget and gets the storage error —
/// it never guesses, and never touches a chunk.
#[test]
fn a_tuple_stripped_of_its_inline_manifest_fails_closed_on_a_cold_reader() {
    let env = Env::new(false);
    let config = Shape::Fixed(1).config();
    let mut alice = env.deployment.mount("alice", config.clone(), 1);
    let data = Shape::Fixed(3).payload(1);
    let map = config.chunk_map(&data);
    alice.write_file("/f", &data).unwrap();

    // After the version hash the tuple holds a presence byte, a u64 length
    // and the manifest; the stripped tuple holds a zero presence byte.
    let mut clock = Clock::starting_at(alice.now());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let key = "/scfs/meta/f";
    let coordinator = env.deployment.coordinator();
    let tuple = coordinator.get(&mut ctx, key).unwrap().value;
    let manifest = map.encode();
    let at = tuple
        .windows(manifest.len())
        .position(|w| w == manifest)
        .expect("the tuple carries the manifest inline");
    let mut stripped = tuple[..at - 9].to_vec();
    stripped.push(0);
    stripped.extend_from_slice(&tuple[at + manifest.len()..]);
    let decoded = FileMetadata::decode(&stripped).expect("a syntactically valid tuple");
    assert_eq!(decoded.version_hash, Some(map.root_hash()));
    assert_eq!(decoded.inline_manifest().unwrap(), None);
    coordinator.put(&mut ctx, key, stripped).unwrap();

    let mut reader = env.cold_mount("alice", &config, &alice);
    env.take_log();
    let started = reader.now();
    match reader.open("/f", OpenFlags::read_only()) {
        Err(ScfsError::Storage(e)) => assert!(e.is_transient(), "{e}"),
        other => panic!("a tuple without its manifest opened: {other:?}"),
    }
    assert!(
        reader.now().duration_since(started) >= SimDuration::from_secs(10),
        "the whole anchored_fetch budget was spent first"
    );
    let log = env.take_log();
    assert!(!log.is_empty());
    for (op, key) in &log {
        assert_eq!((*op, blob_of(key)), (Op::Get, manifest_of(&map)));
    }

    // The instance that committed the version still has its map, so there a
    // copy is possible — and must not reproduce the defect: it materializes,
    // and the new file's tuple carries its manifest.
    alice.sleep(SimDuration::from_secs(30));
    alice.copy_file("/f", "/copy").unwrap();
    let mut reader = env.cold_mount("alice", &config, &alice);
    assert_eq!(reader.read_file("/copy").unwrap(), data);
}

/// `(op, key)` requests of kind `op` in `log`.
fn keys_of(log: &[(Op, String)], op: Op) -> Vec<&str> {
    let of_kind = log.iter().filter(|(kind, _)| *kind == op);
    of_kind.map(|(_, key)| key.as_str()).collect()
}

#[test]
fn a_coc_chunk_is_its_three_blocks_and_a_manifest_a_unit_with_a_record() {
    // The paper's deployment: WAN clouds, S3, GCS, Rackspace and Azure.
    let env = Env::build(Deployment::on(Backend::CloudOfClouds));
    let shape = Shape::Fixed(13);
    let config = shape.config();
    let data = shape.payload(5);
    let map = config.chunk_map(&data);
    let mut writer = env.deployment.mount("alice", config.clone(), 1);
    writer.write_file("/f", &data).unwrap();

    // A blocking write: three block PUTs per chunk, and the manifest's three
    // blocks plus its record on each of the four clouds.
    let logs = env.take_logs();
    let puts: usize = logs.iter().map(|log| keys_of(log, Op::Put).len()).sum();
    assert_eq!(puts, 13 * 3 + 7);
    let azure = keys_of(&logs[3], Op::Put);
    assert_eq!(blobs(&logs[3], Op::Put), [manifest_of(&map)], "{azure:?}");
    assert!(azure[0].ends_with("/metadata"), "no block reaches cloud 3");

    // A cold read through a second backend instance: one round of three
    // block GETs per chunk. The only records it reads are the manifest's.
    let second = env.deployment.second_instance();
    let mut reader = second.mount("alice", config, 2);
    reader.sleep(writer.now().duration_since(reader.now()) + SimDuration::from_secs(60));
    assert_eq!(reader.read_file("/f").unwrap(), data);
    let log = env.take_log();
    let gets = keys_of(&log, Op::Get);
    let (records, blocks): (Vec<&str>, Vec<&str>) =
        gets.into_iter().partition(|key| key.ends_with("/metadata"));
    let records: Vec<Blob> = records.into_iter().map(blob_of).collect();
    assert_eq!(records, vec![manifest_of(&map); 4]);
    let mut per_blob: BTreeMap<Blob, usize> = BTreeMap::new();
    for key in blocks {
        *per_blob.entry(blob_of(key)).or_default() += 1;
    }
    let mut expected: BTreeMap<Blob, usize> = chunks_of(&map).into_iter().map(|c| (c, 3)).collect();
    expected.insert(manifest_of(&map), 3);
    assert_eq!(per_blob, expected);

    // Neither instance holds the record of a chunk: each caches the one
    // manifest record it wrote or read.
    for deployment in [&env.deployment, &second] {
        let units = deployment.cached_record_units();
        assert_eq!(units.len(), 1, "{units:?}");
        assert!(!units[0].starts_with("chunks|"), "{units:?}");
    }
}

#[test]
fn collecting_a_coc_chunk_is_one_delete_per_holder() {
    let env = Env::build(Deployment::on(Backend::CloudOfClouds));
    let storage = env.deployment.storage();
    let config = Shape::Fixed(2).config();
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let opts = TransferOptions::default();
    let v1 = DetRng::new(3).bytes(2 * CHUNK);
    let mut v2 = v1.clone();
    v2[CHUNK] ^= 1;
    let (m1, m2) = (config.chunk_map(&v1), config.chunk_map(&v2));
    storage
        .write_version(&mut ctx, "alice-f1", &v1, &m1, None, true, None, &opts)
        .unwrap();
    storage
        .write_version(
            &mut ctx,
            "alice-f1",
            &v2,
            &m2,
            Some(&m1),
            false,
            None,
            &opts,
        )
        .unwrap();
    assert_eq!(
        storage
            .delete_old_versions(&mut ctx, "alice-f1", 1)
            .unwrap(),
        1
    );
    env.take_log();

    // The replaced chunk goes; the manifests rode inline, so it is all.
    let report = storage
        .replay_release_journal(&mut ctx, &JournalOpts::default())
        .unwrap();
    assert_eq!(report.errors, 0);
    let logs = env.take_logs();
    let gone = Blob::Chunk(to_hex(&m1.chunks()[1]));
    for (cloud, log) in logs.iter().enumerate() {
        let expected = if cloud < 3 {
            vec![gone.clone()]
        } else {
            Vec::new()
        };
        assert_eq!(blobs(log, Op::Delete), expected, "cloud {cloud}");
        assert_eq!(log.len(), expected.len(), "cloud {cloud}: {log:?}");
    }
    assert_eq!(env.deployment.cached_record_units(), Vec::<String>::new());
}
