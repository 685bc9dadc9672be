//! Controlled file sharing between two users (the paper's collaboration
//! use case): Alice creates a report, grants Bob access with `setfacl`, Bob
//! edits it, and the write lock prevents conflicting concurrent updates.
//!
//! Run with: `cargo run --example shared_collaboration`

use scfs_repro::cloud_store::types::Permission;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::OpenFlags;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::workloads::setup::{Backend, Deployment};

fn main() {
    // One shared environment (cloud-of-clouds backend + BFT coordination
    // service), two agents mounted by two different users.
    let env = Deployment::paper(Backend::CloudOfClouds, 7);
    let mut alice = env.mount("alice", ScfsConfig::paper_default(Mode::Blocking), 1);
    let mut bob = env.mount("bob", ScfsConfig::paper_default(Mode::Blocking), 2);

    // Alice writes the report and shares it with Bob.
    alice
        .write_file("/shared/q2-report.odt", b"Q2 draft v1 (alice)")
        .expect("alice writes");
    alice
        .setfacl("/shared/q2-report.odt", &"bob".into(), Permission::Write)
        .expect("alice grants bob write access");
    println!("[{}] alice shared the report", alice.now());

    // Bob catches up in virtual time and opens the shared report.
    bob.sleep(SimDuration::from_secs(5).max(alice.now().duration_since(bob.now())));
    let contents = bob.read_file("/shared/q2-report.odt").expect("bob reads");
    println!(
        "[{}] bob read: {}",
        bob.now(),
        String::from_utf8_lossy(&contents)
    );

    // Bob edits it; while his handle is open for writing Alice cannot grab
    // the write lock (write-write conflicts are prevented).
    let h = bob
        .open("/shared/q2-report.odt", OpenFlags::read_write())
        .expect("bob opens for writing");
    bob.write(h, 0, b"Q2 draft v2 (bob)  ").expect("bob edits");

    alice.sleep(SimDuration::from_secs(1).max(bob.now().duration_since(alice.now())));
    match alice.open("/shared/q2-report.odt", OpenFlags::read_write()) {
        Err(e) => println!(
            "[{}] alice cannot write while bob holds the lock: {e}",
            alice.now()
        ),
        Ok(_) => println!("unexpected: alice acquired the lock"),
    }

    bob.close(h).expect("bob closes (consistency-on-close)");
    println!(
        "[{}] bob closed the file; his update is now in the clouds",
        bob.now()
    );

    // Consistency-on-close: Alice now sees Bob's version.
    alice.sleep(SimDuration::from_secs(2).max(bob.now().duration_since(alice.now())));
    let latest = alice
        .read_file("/shared/q2-report.odt")
        .expect("alice re-reads");
    println!(
        "[{}] alice reads: {}",
        alice.now(),
        String::from_utf8_lossy(&latest)
    );
}
