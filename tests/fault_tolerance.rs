//! Fault-injection integration tests: the cloud-of-clouds backend must mask
//! `f = 1` faulty storage providers and one faulty coordination replica,
//! which is the availability/integrity argument of the paper (§3.2).

use scfs_repro::cloud_store::store::ObjectStore;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::time::{SimDuration, SimInstant};
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
