//! Fault-injection integration tests: the cloud-of-clouds backend must mask
//! `f = 1` faulty storage providers and one faulty coordination replica,
//! which is the availability/integrity argument of the paper (§3.2).

use std::sync::Arc;

use scfs_repro::cloud_store::error::StorageError;
use scfs_repro::cloud_store::providers::{ProviderProfile, ProviderSet};
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::cloud_store::types::{Acl, ObjectMeta};
use scfs_repro::depsky::config::DepSkyConfig;
use scfs_repro::depsky::metadata::DataUnitMetadata;
use scfs_repro::depsky::register::DepSkyClient;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::CutRule;
use scfs_repro::scfs_crypto::sha256;
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::time::{Clock, SimDuration, SimInstant};
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
    // because DepSky only waits for a quorum.
    fx.clouds[3].set_fault_plan(
        FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1 << 20)),
        3,
    );
    let mut fs = mount(&fx, "alice", 3);
    let data = vec![5u8; 50_000];
    fs.write_file("/critical/ledger", &data).unwrap();
    assert_eq!(fs.read_file("/critical/ledger").unwrap(), data);
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

/// How a Byzantine cloud answers a GET of a DepSky record. Records are
/// unsigned, so it may hand out any bytes that decode.
#[derive(Debug, Clone, Copy)]
enum Lie {
    /// The real record plus one more version that carries the requested
    /// hash and names blocks no cloud holds.
    Fabricate,
    /// The record as it was before its newest version was appended.
    Stale,
}

/// A cloud that tells `lie` about every record it serves and forwards
/// everything else.
struct LyingRecords {
    inner: Arc<SimulatedCloud>,
    lie: Lie,
}

impl ObjectStore for LyingRecords {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn profile(&self) -> &ProviderProfile {
        self.inner.profile()
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put(ctx, key, data)
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        let bytes = self.inner.get(ctx, key)?;
        let record = key.ends_with("/metadata");
        let Some(mut md) = record
            .then(|| DataUnitMetadata::decode(&bytes).ok())
            .flatten()
        else {
            return Ok(bytes);
        };
        match self.lie {
            Lie::Fabricate => {
                let mut forged = md
                    .latest()
                    .expect("a stored record names a version")
                    .clone();
                forged.version += 1;
                for slot in &mut forged.slots {
                    slot.hash = sha256(b"no cloud holds this block");
                }
                md.push_version(forged);
            }
            Lie::Stale => {
                md.versions.pop();
            }
        }
        Ok(md.encode())
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

#[test]
fn a_lying_record_does_not_defeat_a_cold_read() {
    // One cloud of four lies about the record of a unit written twice, so
    // the honest record names two versions. A cold client tries the record
    // the most clouds returned first: one record round and one block
    // round, as with no liar.
    for lie in [Lie::Fabricate, Lie::Stale] {
        for liar in 0..4 {
            let sims: Vec<Arc<SimulatedCloud>> = ProviderSet::test_backend(4)
                .into_iter()
                .enumerate()
                .map(|(i, p)| Arc::new(SimulatedCloud::new(p, i as u64)))
                .collect();
            let stores = |lying: bool| -> Vec<Arc<dyn ObjectStore>> {
                let stores = sims.iter().enumerate().map(|(i, sim)| {
                    if lying && i == liar {
                        Arc::new(LyingRecords {
                            inner: sim.clone(),
                            lie,
                        }) as Arc<dyn ObjectStore>
                    } else {
                        sim.clone() as Arc<dyn ObjectStore>
                    }
                });
                stores.collect()
            };
            let client = |lying, seed| {
                DepSkyClient::new(stores(lying), DepSkyConfig::scfs_default(), seed).unwrap()
            };
            let data = vec![0x3Cu8; 5_000];
            let hash = sha256(&data);
            let mut clock = Clock::new();
            let mut ctx = OpCtx::new(&mut clock, "alice".into());
            let writer = client(false, 1);
            writer.write_blob(&mut ctx, "f", &hash, &data).unwrap();
            writer.write_blob(&mut ctx, "f", &hash, &data).unwrap();

            let before = gets(&sims);
            let read = client(true, 2).read_blob(&mut ctx, "f", &hash);
            assert_eq!(read, Ok(data), "{lie:?} from cloud {liar}");
            assert_eq!(gets(&sims) - before, 4 + 3, "{lie:?} from cloud {liar}");
        }
    }
}

#[test]
fn a_cold_mount_reads_a_manifest_past_a_lying_record() {
    // Thirteen chunks: the manifest is an object of its own, a DepSky unit
    // with a record, which the second instance has never seen.
    const CHUNK: usize = 4096;
    for lie in [Lie::Fabricate, Lie::Stale] {
        let fx = Deployment::on(Backend::CloudOfClouds)
            .providers(Providers::Instantaneous)
            .build_behind(7, |cloud| {
                if cloud.id() == ProviderSet::test_backend(4)[1].id {
                    Arc::new(LyingRecords { inner: cloud, lie })
                } else {
                    cloud
                }
            });
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunking = CutRule::Fixed(CHUNK);
        let data: Vec<u8> = (0..13 * CHUNK).map(|i| (i / CHUNK * 7 + i) as u8).collect();
        let mut writer = fx.mount("alice", config.clone(), 1);
        writer.write_file("/big", &data).unwrap();

        let mut reader = fx.second_instance().mount("alice", config, 2);
        reader.sleep(writer.now().duration_since(reader.now()) + SimDuration::from_secs(1));
        assert_eq!(reader.read_file("/big").unwrap(), data, "{lie:?}");
    }
}
