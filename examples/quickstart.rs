//! Quickstart: mount an SCFS agent on a simulated single-cloud (AWS) backend,
//! write a file, read it back and inspect what it cost.
//!
//! Run with: `cargo run --example quickstart`

use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::workloads::setup::{Backend, Deployment};

fn main() {
    // 1. The backend: one simulated Amazon S3 (WAN latency, eventual
    //    consistency, 2014 price book) and one coordination-service instance
    //    in EC2 — the paper's "AWS backend".
    let deployment = Deployment::paper(Backend::Aws, 1);

    // 2. Mount the agent in blocking mode (full consistency-on-close).
    let mut fs = deployment.mount("alice", ScfsConfig::paper_default(Mode::Blocking), 42);

    // 3. Use it like a file system.
    fs.mkdir("/docs").expect("mkdir");
    fs.write_file("/docs/notes.txt", b"SCFS stores whole files in the cloud")
        .expect("write");
    let back = fs.read_file("/docs/notes.txt").expect("read");
    println!(
        "read back {} bytes: {:?}",
        back.len(),
        String::from_utf8_lossy(&back)
    );

    let md = fs.stat("/docs/notes.txt").expect("stat");
    println!(
        "file size {}B, version {}, hash present: {}",
        md.size,
        md.version_count,
        md.version_hash.is_some()
    );

    // 4. What did it cost, and how long did it take (in virtual time)?
    println!("virtual time elapsed: {}", fs.now());
    println!(
        "cloud charges for alice so far: {}",
        deployment.clouds[0].ledger().total_for(&"alice".into())
    );
    println!("agent stats: {:?}", fs.stats());
}
