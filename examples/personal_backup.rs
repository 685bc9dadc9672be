//! A personal file-synchronization setup (the paper's "secure personal file
//! system" use case): non-sharing mode, no coordination service, private
//! name spaces only — like S3QL/Dropbox, but optionally cloud-of-clouds
//! backed and with versioning + garbage collection.
//!
//! Run with: `cargo run --example personal_backup`

use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::OpenFlags;
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{build_scfs, Backend};

fn main() {
    // Non-sharing mode on the cloud-of-clouds backend; aggressive GC so the
    // version history stays small.
    let mut config = ScfsConfig::paper_default(Mode::NonSharing);
    config.gc.written_bytes_threshold = Bytes::mib(1);
    config.gc.versions_to_keep = 2;
    let mut fs = build_scfs(Backend::CloudOfClouds, config, 99);

    // A desktop session: the user keeps saving the same documents.
    for revision in 1..=8u8 {
        for doc in ["thesis.tex", "photos.db", "todo.md"] {
            let content = vec![revision; 64 * 1024];
            fs.write_file(&format!("/home/{doc}"), &content)
                .expect("save");
        }
    }
    println!("virtual time after 24 saves: {}", fs.now());
    println!(
        "background uploads drain at:   {}",
        fs.background_drain_instant()
    );
    // Each pending save is a first-class completion token; the thesis is the
    // one document worth promoting to cloud durability before shutdown.
    if let Some(token) = fs.upload_token("/home/thesis.tex") {
        println!(
            "thesis upload in flight:       started {}, lands {}",
            token.started_at(),
            token.ready_at()
        );
    }
    let h = fs
        .open("/home/thesis.tex", OpenFlags::read_only())
        .expect("open thesis");
    let level = fs.sync(h).expect("promote thesis to cloud durability");
    fs.close(h).expect("close thesis");
    println!(
        "thesis synced to level {} ({}) at {}",
        level.level(),
        level.tolerates(),
        fs.now()
    );

    let stats = fs.stats();
    println!(
        "uploads: {}, GC runs: {}, versions reclaimed: {}",
        stats.cloud_uploads, stats.gc_runs, stats.gc_reclaimed_versions
    );
    println!(
        "private tuples in the PNS (no coordination service at all): {}",
        fs.metadata_service().private_tuples()
    );

    // Everything is still there.
    for doc in ["thesis.tex", "photos.db", "todo.md"] {
        let data = fs.read_file(&format!("/home/{doc}")).expect("read back");
        assert_eq!(data.len(), 64 * 1024);
    }
    println!("all documents verified after the session");
}
