//! Integration tests for the completion-token async storage API: background
//! uploads as first-class `Pending` jobs on per-object scheduler lanes,
//! per-object waits instead of a global drain, explicit durability promotion
//! through `FileSystem::sync`, and read-your-writes across two mounts of the
//! same account via the surfaced token.

use scfs_repro::cloud_store::types::Permission;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::durability::DurabilityLevel;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::workloads::setup::{Backend, Deployment};

/// `n` distinct 1 MiB chunks, tagged by `tag` so two files never dedup into
/// each other.
fn distinct_chunks(n: usize, tag: u8) -> Vec<u8> {
    let mut data = vec![0u8; n << 20];
    for (i, chunk) in data.chunks_mut(1 << 20).enumerate() {
        chunk.fill((i as u8).wrapping_mul(31) ^ tag);
    }
    data
}

/// The acceptance test of the redesign: two non-blocking closes of
/// *different* files run on separate scheduler lanes and overlap in virtual
/// time — the total background drain is strictly less than the sum of the
/// two uploads' individual latencies (the old scalar `background_cursor`
/// serialized them, making the drain exactly the sum).
#[test]
fn non_blocking_closes_of_different_files_overlap_in_virtual_time() {
    let env = Deployment::paper(Backend::Aws, 41);
    let mut fs = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 1);

    let start = fs.now();
    fs.write_file("/docs/a.bin", &distinct_chunks(8, 0x00))
        .unwrap();
    let token_a = fs.upload_token("/docs/a.bin").expect("a pending");
    fs.write_file("/docs/b.bin", &distinct_chunks(8, 0x80))
        .unwrap();
    let token_b = fs.upload_token("/docs/b.bin").expect("b pending");

    let upload_a = token_a.duration();
    let upload_b = token_b.duration();
    assert!(upload_a > SimDuration::ZERO);
    assert!(upload_b > SimDuration::ZERO);

    let drain = fs.background_drain_instant().duration_since(start);
    let serialized = upload_a + upload_b;
    assert!(
        drain < serialized,
        "background drain {drain} must beat the serialized timeline {serialized} \
         (upload a {upload_a}, upload b {upload_b})"
    );
    // Both tokens resolve to cloud durability, and waiting on them makes the
    // data readable through a second client.
    assert_eq!(*token_a.value(), DurabilityLevel::SingleCloud);
    assert_eq!(*token_b.value(), DurabilityLevel::SingleCloud);
}

/// `setfacl` after a pending upload waits only on that object's token: a
/// grant on a small, already-committed file must not drain the still-running
/// upload of an unrelated big file.
#[test]
fn setfacl_after_pending_uploads_waits_per_object() {
    let env = Deployment::paper(Backend::Aws, 43);
    // 32 chunks take eight waves: the big upload stays long relative to the
    // foreground work.
    let mut alice = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 1);

    alice
        .write_file("/shared/big.bin", &distinct_chunks(32, 0x3C))
        .unwrap();
    alice.write_file("/shared/small.txt", b"tiny").unwrap();
    let big = alice.upload_token("/shared/big.bin").expect("big pending");

    alice
        .setfacl("/shared/small.txt", &"bob".into(), Permission::Read)
        .unwrap();
    assert!(
        alice.now() < big.ready_at(),
        "the grant on small.txt drained big.bin's upload ({} vs {})",
        alice.now(),
        big.ready_at()
    );

    // The grant itself is fully committed and visible to the grantee.
    let mut bob = env.mount("bob", ScfsConfig::paper_default(Mode::NonBlocking), 2);
    bob.sleep(alice.now().duration_since(bob.now()) + SimDuration::from_secs(1));
    assert_eq!(bob.read_file("/shared/small.txt").unwrap(), b"tiny");
}

/// Read-your-writes across two mounts of the same account: mount B opens
/// after mount A's non-blocking close and waits on the surfaced completion
/// token — a precise, per-object wait — instead of sleeping past a guessed
/// drain horizon.
#[test]
fn second_mount_of_the_same_account_waits_on_the_surfaced_token() {
    let env = Deployment::paper(Backend::Aws, 47);
    let mut mount_a = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 1);
    let mut mount_b = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 2);

    let data = distinct_chunks(4, 0x11);
    mount_a.write_file("/work/report.bin", &data).unwrap();
    let token = mount_a
        .upload_token("/work/report.bin")
        .expect("the non-blocking close surfaces its completion token");
    assert!(token.ready_at() > mount_a.now(), "commit still in flight");

    // Mount B waits exactly until the commit lands, then opens.
    mount_b.wait_for(&token);
    assert_eq!(mount_b.read_file("/work/report.bin").unwrap(), data);
    assert_eq!(*token.value(), DurabilityLevel::SingleCloud);
}

/// `sync(handle)` promotes durability per Table 1: level 1 on return from a
/// non-blocking close, level 2/3 once the object's token is awaited — on
/// both backends.
#[test]
fn sync_reports_the_backend_durability_level() {
    for (backend, level) in [
        (Backend::Aws, DurabilityLevel::SingleCloud),
        (Backend::CloudOfClouds, DurabilityLevel::CloudOfClouds),
    ] {
        let env = Deployment::paper(backend, 53);
        let mut fs = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 1);
        fs.write_file("/f", &distinct_chunks(2, 0x22)).unwrap();
        let token = fs.upload_token("/f").expect("pending upload");
        assert_eq!(*token.value(), level);

        let h = fs
            .open("/f", scfs_repro::scfs::types::OpenFlags::read_only())
            .unwrap();
        assert_eq!(fs.sync(h).unwrap(), level);
        assert!(fs.now() >= token.ready_at(), "sync waited for the commit");
        assert!(fs.upload_token("/f").is_none(), "token retired");
        fs.close(h).unwrap();
    }
}

/// The copy — a read of the source and a write of the destination — works
/// end-to-end on both backends and in non-blocking mode surfaces a
/// completion token like any other commit. The read comes from the cache
/// and the write stores the destination's own chunks. (The name predates
/// the materializing copy, when the destination uploaded nothing.)
#[test]
fn copy_file_moves_zero_chunks_on_both_backends() {
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let env = Deployment::paper(backend, 59);
        let mut fs = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 1);
        let data = distinct_chunks(4, 0x44);
        fs.write_file("/library/original.bin", &data).unwrap();
        let before = fs.stats();

        fs.copy_file("/library/original.bin", "/library/copy.bin")
            .unwrap();
        let after = fs.stats();
        assert_eq!(
            after.chunk_downloads, before.chunk_downloads,
            "a cached read"
        );
        assert_eq!(
            after.chunk_uploads,
            before.chunk_uploads + 4,
            "the copy stores its own four chunks"
        );
        assert_eq!(after.dedup_hits_cross_file, 0);

        // The copy's commit is itself a background token; a second client
        // waits on it and reads the copy.
        let token = fs.upload_token("/library/copy.bin").expect("copy pending");
        fs.setfacl("/library/copy.bin", &"bob".into(), Permission::Read)
            .unwrap();
        let mut bob = env.mount("bob", ScfsConfig::paper_default(Mode::NonBlocking), 2);
        // The copy's version is visible from the token's ready instant; the
        // ACL grant commits at alice's post-setfacl clock.
        bob.wait_for(&token);
        bob.sleep(fs.now().duration_since(bob.now()) + SimDuration::from_secs(1));
        assert_eq!(bob.read_file("/library/copy.bin").unwrap(), data);
    }
}
