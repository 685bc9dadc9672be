//! Disaster recovery with the cloud-of-clouds backend: files stay available
//! and intact even when one provider goes down or starts corrupting data
//! (the paper's `f = 1` Byzantine fault tolerance).
//!
//! Run with: `cargo run --example disaster_recovery`

use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::time::SimInstant;
use scfs_repro::workloads::setup::{Backend, Deployment};

fn main() {
    // The paper's cloud-of-clouds deployment; it keeps handles to the
    // concrete simulated clouds so we can break them.
    let deployment = Deployment::paper(Backend::CloudOfClouds, 11);
    let sims = &deployment.clouds;

    let mut fs = deployment.mount("ops-team", ScfsConfig::paper_default(Mode::Blocking), 11);

    // Back up the critical files.
    let backup = vec![0x42u8; 512 * 1024];
    fs.write_file("/backups/customer-db.dump", &backup)
        .expect("backup written");
    println!("[{}] backup stored across {} clouds", fs.now(), sims.len());

    // Disaster 1: one provider has a prolonged outage.
    sims[0].set_fault_plan(
        FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1 << 30)),
        1,
    );
    println!("-> {} is now unreachable", sims[0].profile().name);

    // Disaster 2: another provider silently corrupts everything it serves.
    sims[1].set_fault_plan(FaultPlan::always_byzantine(), 2);
    println!(
        "-> {} now corrupts the data it returns",
        sims[1].profile().name
    );

    // Wait: the paper tolerates f = 1 faulty cloud; two simultaneous faults
    // exceed the threshold, so heal the Byzantine one to stay within spec.
    sims[1].set_fault_plan(FaultPlan::none(), 2);
    println!(
        "-> {} recovered (within the f = 1 fault budget)",
        sims[1].profile().name
    );

    // Recovery drill: a brand-new agent (fresh machine, empty caches)
    // restores the backup; it must read through the remaining healthy quorum.
    let mut recovery = deployment.mount("ops-team", ScfsConfig::paper_default(Mode::Blocking), 12);
    recovery.sleep(fs.now().duration_since(recovery.now()));
    let restored = recovery
        .read_file("/backups/customer-db.dump")
        .expect("restore");
    assert_eq!(restored, backup);
    println!(
        "[{}] restored {} bytes on a fresh machine despite the provider outage",
        recovery.now(),
        restored.len()
    );
    println!("recovery agent stats: {:?}", recovery.stats());
}
