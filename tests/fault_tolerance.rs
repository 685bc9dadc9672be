//! Fault-injection integration tests: the cloud-of-clouds backend must mask
//! `f = 1` faulty storage providers and one faulty coordination replica,
//! which is the availability/integrity argument of the paper (§3.2).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use scfs_repro::cloud_store::error::StorageError;
use scfs_repro::cloud_store::providers::{ProviderProfile, ProviderSet};
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::cloud_store::types::{Acl, ObjectMeta};
use scfs_repro::depsky::config::DepSkyConfig;
use scfs_repro::depsky::register::DepSkyClient;
use scfs_repro::depsky::wire::{Reader, Writer};
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::CutRule;
use scfs_repro::scfs_crypto::sha256;
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::time::{Clock, SimDuration, SimInstant};
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{Backend, Deployment, Providers};

/// Four instantaneous clouds under DepSky, beside the paper's four-replica
/// Byzantine coordination service.
fn fixture(seed: u64) -> Deployment {
    Deployment::on(Backend::CloudOfClouds)
        .providers(Providers::Instantaneous)
        .build(seed)
}

fn mount(fx: &Deployment, user: &str, seed: u64) -> ScfsAgent {
    fx.mount(user, ScfsConfig::test(Mode::Blocking), seed)
}

#[test]
fn files_survive_a_byzantine_storage_cloud() {
    let fx = fixture(1);
    let mut fs = mount(&fx, "alice", 1);
    let data = vec![9u8; 200_000];
    fs.write_file("/critical/db.bak", &data).unwrap();

    // One cloud starts corrupting everything it returns.
    fx.clouds[2].set_fault_plan(FaultPlan::always_byzantine(), 7);

    // A fresh agent (empty caches) still reads the correct bytes.
    let mut fresh = mount(&fx, "alice", 2);
    fresh.sleep(SimDuration::from_secs(10));
    assert_eq!(fresh.read_file("/critical/db.bak").unwrap(), data);
}

#[test]
fn files_survive_a_storage_cloud_outage_during_writes() {
    let fx = fixture(2);
    // One provider is down from the very beginning; writes must still work
    // because DepSky only waits for a quorum. Cloud 3 is the one cloud that
    // holds no block and gets no request: an outage of a block holder fails
    // every write (`open_hole_an_outage_of_a_block_holder_fails_every_coc_write`).
    fx.clouds[3].set_fault_plan(
        FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1 << 20)),
        3,
    );
    let mut fs = mount(&fx, "alice", 3);
    let data = vec![5u8; 50_000];
    fs.write_file("/critical/ledger", &data).unwrap();
    assert_eq!(fs.read_file("/critical/ledger").unwrap(), data);
}

/// The clouds of `fx` that store a DepSky block, found by what they hold
/// after a write, not by their index.
fn block_holders(fx: &Deployment) -> Vec<usize> {
    let mut fs = mount(fx, "alice", 9);
    fs.write_file("/probe", &[1u8; 10_000]).unwrap();
    let holds = |i: &usize| {
        let keys = fx.clouds[*i].stored_keys("depsky/");
        keys.iter().any(|key| key.contains("/block"))
    };
    (0..fx.clouds.len()).filter(holds).collect()
}

/// An open hole, pinned as it behaves: the paper's layout writes every block
/// to its `n − f` = 3 holders and waits for all three, so a single holder
/// down fails every CoC write; only the cloud holding nothing is masked
/// (`files_survive_a_storage_cloud_outage_during_writes`). DepSky's
/// preferred-quorum fallback is the fix: the write puts the missing slot on
/// the spare cloud, and a reader widens to it. It flips the assertion to a
/// successful write and read back.
#[test]
fn open_hole_an_outage_of_a_block_holder_fails_every_coc_write() {
    let holders = block_holders(&fixture(11));
    assert_eq!(holders.len(), 3, "{holders:?}");
    for holder in holders {
        let fx = fixture(11);
        fx.clouds[holder].set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1 << 20)),
            3,
        );
        let mut fs = mount(&fx, "alice", 3);
        assert_eq!(
            fs.write_file("/critical/ledger", &[5u8; 50_000]),
            Err(ScfsError::Storage(StorageError::QuorumNotReached {
                needed: 3,
                obtained: 2
            })),
            "cloud {holder} down"
        );
    }
}

#[test]
fn coordination_service_masks_one_byzantine_replica() {
    let fx = fixture(3);
    fx.set_replica_fault(1, FaultPlan::always_byzantine(), 5);
    let mut fs = mount(&fx, "alice", 4);
    fs.write_file("/docs/spec.txt", b"metadata still consistent")
        .unwrap();
    assert_eq!(
        fs.read_file("/docs/spec.txt").unwrap(),
        b"metadata still consistent"
    );
    assert_eq!(fs.stat("/docs/spec.txt").unwrap().version_count, 1);
}

#[test]
fn too_many_coordination_faults_make_the_service_unavailable() {
    let fx = fixture(4);
    fx.set_replica_fault(0, FaultPlan::crash_at(SimInstant::EPOCH), 1);
    fx.set_replica_fault(1, FaultPlan::crash_at(SimInstant::EPOCH), 2);
    let mut fs = mount(&fx, "alice", 5);
    // With two of four replicas crashed (f = 1), updates cannot commit.
    assert!(fs.write_file("/docs/spec.txt", b"x").is_err());
}

#[test]
fn confidentiality_no_single_cloud_holds_readable_file_contents() {
    let fx = fixture(5);
    let mut fs = mount(&fx, "alice", 6);
    let secret = b"extremely confidential merger contract".to_vec();
    fs.write_file("/legal/contract.txt", &secret).unwrap();

    for sim in &fx.clouds {
        let mut clock = scfs_repro::sim_core::time::Clock::new();
        clock.advance(SimDuration::from_secs(60));
        let mut ctx = scfs_repro::cloud_store::store::OpCtx::new(&mut clock, "alice".into());
        for key in sim.list(&mut ctx, "").unwrap() {
            let bytes = sim.get(&mut ctx, &key).unwrap();
            assert!(
                !bytes.windows(secret.len()).any(|w| w == secret.as_slice()),
                "cloud {} stores the plaintext in {key}",
                sim.id()
            );
        }
    }
}

/// What a Byzantine holder serves for a block of a blob other than a chunk,
/// a well-formed block either way.
#[derive(Debug, Clone, Copy)]
enum Lie {
    /// The block it stored first under that key: a blob written again (a
    /// manifest pruned and then rewritten) is a fresh encryption over the
    /// same keys.
    Stale,
    /// The real block with every byte of its key share and shard changed.
    Fabricate,
}

/// A cloud that, once `lying`, tells `lie` about every block of a blob other
/// than a chunk (a manifest, or a bare client's blob) it serves and forwards
/// everything else.
struct LyingHolder {
    inner: Arc<SimulatedCloud>,
    lie: Lie,
    lying: AtomicBool,
    first: Mutex<BTreeMap<String, Vec<u8>>>,
}

/// A block key of a manifest: a blob whose unit is its object's id, not the
/// id's `.chunks` base.
fn is_manifest_block(key: &str) -> bool {
    let unit = key
        .strip_prefix("depsky/")
        .and_then(|rest| rest.split_once('|'));
    unit.is_some_and(|(base, _)| !base.ends_with(".chunks")) && key.contains("/block")
}

/// `block` with its key share and shard XORed, still decoding as a block of
/// the same slot, nonce and plaintext length.
fn fabricated(block: &[u8]) -> Vec<u8> {
    let mut r = Reader::new(block);
    let (slot, share_index) = (r.get_u8().unwrap(), r.get_u8().unwrap());
    let (nonce, size) = (r.get_bytes().unwrap(), r.get_u64().unwrap());
    let garble = |bytes: Vec<u8>| -> Vec<u8> { bytes.iter().map(|b| b ^ 0x5A).collect() };
    let (share, shard) = (
        garble(r.get_bytes().unwrap()),
        garble(r.get_bytes().unwrap()),
    );
    let mut w = Writer::new();
    w.put_u8(slot)
        .put_u8(share_index)
        .put_bytes(&nonce)
        .put_u64(size);
    w.put_bytes(&share).put_bytes(&shard);
    w.finish()
}

impl ObjectStore for LyingHolder {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn profile(&self) -> &ProviderProfile {
        self.inner.profile()
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut first = self.first.lock().unwrap();
        first
            .entry(key.to_string())
            .or_insert_with(|| data.to_vec());
        self.inner.put(ctx, key, data)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        let bytes = self.inner.get(ctx, key)?;
        if !self.lying.load(Ordering::SeqCst) || !is_manifest_block(key) {
            return Ok(bytes);
        }
        Ok(match self.lie {
            Lie::Stale => self.first.lock().unwrap()[key].clone(),
            Lie::Fabricate => fabricated(&bytes),
        })
    }

    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError> {
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

/// Every GET the clouds saw, answered or refused.
fn gets(sims: &[Arc<SimulatedCloud>]) -> u64 {
    let snapshots = sims.iter().map(|s| s.metrics().snapshot());
    snapshots.map(|m| m.gets + m.errors).sum()
}

/// `LyingHolder` over `inner`, not lying yet, with what it was handed.
fn lying_holder(inner: Arc<SimulatedCloud>, lie: Lie) -> Arc<LyingHolder> {
    Arc::new(LyingHolder {
        inner,
        lie,
        lying: AtomicBool::new(false),
        first: Mutex::new(BTreeMap::new()),
    })
}

#[test]
fn a_lying_record_does_not_defeat_a_cold_read() {
    // Named for the metadata record a liar once served; a blob has no record
    // now, so the liar lies about what a read does fetch, the blob's blocks.
    // One cloud of four serves, for a blob written twice, its first block
    // (stale) or a garbled one (fabricated). A cold client races the two
    // first holders: a liar among them costs one widening to the third, a
    // liar outside them (the third holder, or the fourth cloud, which holds
    // nothing) costs nothing.
    for lie in [Lie::Stale, Lie::Fabricate] {
        for liar in 0..4 {
            let sims: Vec<Arc<SimulatedCloud>> = ProviderSet::test_backend(4)
                .into_iter()
                .enumerate()
                .map(|(i, p)| Arc::new(SimulatedCloud::new(p, i as u64)))
                .collect();
            let lying = lying_holder(sims[liar].clone(), lie);
            let stores: Vec<Arc<dyn ObjectStore>> = sims
                .iter()
                .enumerate()
                .map(|(i, sim)| {
                    if i == liar {
                        lying.clone() as Arc<dyn ObjectStore>
                    } else {
                        sim.clone() as Arc<dyn ObjectStore>
                    }
                })
                .collect();
            let client =
                |seed| DepSkyClient::new(stores.clone(), DepSkyConfig::scfs_default(), seed);
            let data = vec![0x3Cu8; 5_000];
            let hash = sha256(&data);
            let mut clock = Clock::new();
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            let writer = client(1).unwrap();
            writer.write_blob(&mut ctx, "f", &hash, &data).unwrap();
            writer.write_blob(&mut ctx, "f", &hash, &data).unwrap();

            lying.lying.store(true, Ordering::SeqCst);
            let before = gets(&sims);
            let read = client(2).unwrap().read_blob(&mut ctx, "f", &hash);
            assert_eq!(read, Ok(data), "{lie:?} from cloud {liar}");
            let widening = u64::from(liar < 2);
            assert_eq!(
                gets(&sims) - before,
                2 + widening,
                "{lie:?} from cloud {liar}"
            );
        }
    }
}

#[test]
fn a_cold_mount_reads_a_manifest_past_a_lying_record() {
    // Named for the manifest's metadata record a liar once served; the
    // manifest has no record now, so the liar lies about its block.
    // Thirteen chunks: the manifest is an object of its own. It is written,
    // pruned and written again, so its holders have stored two encryptions
    // of it. The first holder a read races, cloud 0, lies about the
    // manifest's block to a cold mount through a second backend instance:
    // the read widens to the third holder for the manifest (three GETs) and
    // reads each chunk with two.
    const CHUNK: usize = 4096;
    for lie in [Lie::Stale, Lie::Fabricate] {
        let mut liar = None;
        let fx = Deployment::on(Backend::CloudOfClouds)
            .providers(Providers::Instantaneous)
            .build_behind(7, |cloud| {
                if cloud.id() != ProviderSet::test_backend(4)[0].id {
                    return cloud;
                }
                let lying = lying_holder(cloud, lie);
                liar = Some(lying.clone());
                lying
            });
        let liar = liar.expect("cloud 0 is in the pool");
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunking = CutRule::Fixed(CHUNK);
        config.gc.written_bytes_threshold = Bytes::new(1);
        config.gc.versions_to_keep = 1;
        let file = |tag: usize| -> Vec<u8> {
            (0..13 * CHUNK)
                .map(|i| (i / CHUNK * 7 + i + tag) as u8)
                .collect()
        };
        let (data, other) = (file(0), file(1));
        let mut writer = fx.mount("alice", config.clone(), 1);
        for version in [&data, &other, &data] {
            writer.write_file("/big", version).unwrap();
        }
        // The liar holds two encryptions of one manifest block: the one it
        // stored first, and the one under the key now.
        let rewritten = {
            let first = liar.first.lock().unwrap();
            let mut clock = Clock::starting_at(writer.now());
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            let mut now = |key: &str| liar.inner.get(&mut ctx, key).ok();
            let first = first.iter().filter(|(key, _)| is_manifest_block(key));
            first
                .filter(|(key, bytes)| now(key).is_some_and(|now| now != **bytes))
                .count()
        };
        assert_eq!(rewritten, 1, "{lie:?}");

        let mut reader = fx.mount("alice", config, 2);
        reader.sleep(writer.now().duration_since(reader.now()) + SimDuration::from_secs(1));
        liar.lying.store(true, Ordering::SeqCst);
        let before = gets(&fx.clouds);
        assert_eq!(reader.read_file("/big").unwrap(), data, "{lie:?}");
        assert_eq!(gets(&fx.clouds) - before, 13 * 2 + 3, "{lie:?}");
    }
}
