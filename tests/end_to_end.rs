//! End-to-end integration tests spanning the whole stack: simulated clouds,
//! replicated coordination service, DepSky, the SCFS agent and the baselines.

use scfs_repro::cloud_store::store::OpCtx;
use scfs_repro::cloud_store::types::{Acl, Permission};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{ChunkMap, OpenFlags};
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::workloads::setup::{build_system, Backend, Deployment, SystemKind};

#[test]
fn every_system_supports_the_basic_posix_workflow() {
    for kind in SystemKind::all() {
        let mut fs = build_system(kind, 1234);
        fs.mkdir("/work")
            .unwrap_or_else(|e| panic!("{}: mkdir: {e}", kind.label()));
        fs.write_file("/work/a.bin", &vec![1u8; 32 * 1024])
            .unwrap_or_else(|e| panic!("{}: write: {e}", kind.label()));
        assert_eq!(
            fs.read_file("/work/a.bin").unwrap().len(),
            32 * 1024,
            "{}",
            kind.label()
        );
        let listing = fs.readdir("/work").unwrap();
        assert!(
            listing.iter().any(|p| p.ends_with("a.bin")),
            "{}: {listing:?}",
            kind.label()
        );
        fs.copy_file("/work/a.bin", "/work/b.bin").unwrap();
        fs.unlink("/work/a.bin").unwrap();
        assert!(fs.stat("/work/a.bin").is_err(), "{}", kind.label());
        assert_eq!(fs.read_file("/work/b.bin").unwrap().len(), 32 * 1024);
    }
}

#[test]
fn consistency_on_close_across_two_clients_on_the_coc_backend() {
    let env = Deployment::paper(Backend::CloudOfClouds, 77);
    let mut alice = env.mount("alice", ScfsConfig::paper_default(Mode::Blocking), 1);
    let mut bob = env.mount("bob", ScfsConfig::paper_default(Mode::Blocking), 2);

    alice.write_file("/shared/design.md", b"version 1").unwrap();
    alice
        .setfacl("/shared/design.md", &"bob".into(), Permission::Write)
        .unwrap();

    // Bob reads version 1, then writes version 2; Alice must observe it.
    bob.sleep(SimDuration::from_secs(60));
    assert_eq!(bob.read_file("/shared/design.md").unwrap(), b"version 1");
    bob.write_file("/shared/design.md", b"version 2 by bob")
        .unwrap();

    alice.sleep(SimDuration::from_secs(120));
    assert_eq!(
        alice.read_file("/shared/design.md").unwrap(),
        b"version 2 by bob"
    );
}

#[test]
fn locks_serialize_writers_and_expire_for_crashed_clients() {
    let env = Deployment::paper(Backend::Aws, 99);
    let mut alice = env.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
    let mut bob = env.mount("bob", ScfsConfig::test(Mode::Blocking), 2);

    alice.write_file("/shared/ledger.csv", b"row1").unwrap();
    alice
        .setfacl("/shared/ledger.csv", &"bob".into(), Permission::Write)
        .unwrap();
    // Alice opens for writing and "crashes" (never closes).
    let _held = alice
        .open("/shared/ledger.csv", OpenFlags::read_write())
        .unwrap();

    bob.sleep(SimDuration::from_secs(5));
    assert!(bob
        .open("/shared/ledger.csv", OpenFlags::read_write())
        .is_err());

    // After the lock lease expires, Bob can write.
    bob.sleep(SimDuration::from_secs(200));
    let h = bob
        .open("/shared/ledger.csv", OpenFlags::read_write())
        .unwrap();
    bob.write(h, 0, b"row1\nrow2").unwrap();
    bob.close(h).unwrap();
    assert_eq!(bob.read_file("/shared/ledger.csv").unwrap(), b"row1\nrow2");
}

#[test]
fn non_blocking_mode_trades_durability_latency_for_visibility_delay() {
    let env = Deployment::paper(Backend::Aws, 5);
    let mut writer = env.mount("alice", ScfsConfig::paper_default(Mode::NonBlocking), 1);
    let mut reader = env.mount("bob", ScfsConfig::paper_default(Mode::NonBlocking), 2);

    writer.write_file("/shared/feed.json", b"seed").unwrap();
    writer
        .setfacl("/shared/feed.json", &"bob".into(), Permission::Read)
        .unwrap();
    let drained = writer.background_drain_instant();
    reader.sleep(SimDuration::from_secs(3600));
    assert_eq!(reader.read_file("/shared/feed.json").unwrap(), b"seed");

    // A new version: the writer's close returns before the upload completes.
    let before = writer.now();
    writer.write_file("/shared/feed.json", b"update").unwrap();
    let close_latency = writer.now().duration_since(before);
    assert!(writer.background_drain_instant() > writer.now());
    assert!(writer.background_drain_instant() >= drained);
    assert!(close_latency < SimDuration::from_secs(2));

    // A reader polling *after* the background upload drains sees the update.
    let catch_up = writer
        .background_drain_instant()
        .duration_since(reader.now())
        + SimDuration::from_secs(1);
    reader.sleep(catch_up);
    assert_eq!(reader.read_file("/shared/feed.json").unwrap(), b"update");
}

#[test]
fn unshared_files_never_touch_the_coordination_service_with_pns() {
    let mut config = ScfsConfig::test(Mode::NonBlocking);
    config.private_name_spaces = true;
    let env = Deployment::paper(Backend::Aws, 13);
    let coordinator = env.coordinator();
    let mut fs = env.mount("alice", config, 3);

    let before = coordinator.access_count();
    for i in 0..10 {
        fs.write_file(&format!("/private/notes-{i}.txt"), b"mine")
            .unwrap();
    }
    assert_eq!(
        coordinator.access_count(),
        before,
        "private files must not generate coordination-service accesses"
    );

    // A file under the shared tree does.
    fs.write_file("/shared/plan.txt", b"ours").unwrap();
    assert!(coordinator.access_count() > before);
}

/// Coordination-service key of the metadata tuple of `path`.
fn tuple_key(path: &str) -> String {
    format!("/scfs/meta{path}")
}

/// With the manifest riding in the tuple, the coordination-service ACL is
/// the only gate in front of the chunk reads: an account that cannot read
/// the tuple must learn nothing and fetch nothing.
#[test]
fn accounts_without_a_grant_cannot_open_and_read_nothing_from_the_cloud() {
    let env = Deployment::instant(Backend::Aws, 0);
    let (cloud, coordinator) = (&env.clouds[0], env.coordinator());
    let config = ScfsConfig::test(Mode::Blocking);
    let mut alice = env.mount("alice", config.clone(), 1);
    alice.write_file("/shared/doc", &[7u8; 20_000]).unwrap();
    alice
        .setfacl("/shared/doc", &"bob".into(), Permission::Read)
        .unwrap();

    let mut bob = env.mount("bob", config.clone(), 2);
    bob.sleep(SimDuration::from_secs(5));
    assert_eq!(bob.read_file("/shared/doc").unwrap(), vec![7u8; 20_000]);

    // Never granted: the tuple read is refused, so there is no manifest to
    // find chunks with.
    let gets = cloud.metrics().snapshot().gets;
    let mut mallory = env.mount("mallory", config.clone(), 3);
    mallory.sleep(SimDuration::from_secs(5));
    assert!(matches!(
        mallory.open("/shared/doc", OpenFlags::read_only()),
        Err(ScfsError::PermissionDenied { .. })
    ));

    // Revoked: `FileSystem::setfacl` can only grant, so the owner withdraws
    // the grant where it is enforced, on the tuple in the coordination
    // service. A cold mount of the former grantee is locked out like anyone.
    let mut clock = Clock::new();
    clock.advance_to(alice.now());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    coordinator
        .set_acl(&mut ctx, &tuple_key("/shared/doc"), Acl::private())
        .unwrap();
    let mut bob_again = env.mount("bob", config, 4);
    bob_again.sleep(SimDuration::from_secs(5));
    assert!(matches!(
        bob_again.open("/shared/doc", OpenFlags::read_only()),
        Err(ScfsError::PermissionDenied { .. })
    ));
    assert_eq!(
        cloud.metrics().snapshot().gets,
        gets,
        "a refused open must not touch the cloud"
    );
}

/// The inline manifest is authenticated, never trusted: a tuple whose inline
/// copy does not hash to its version hash is a corrupt tuple, and the reader
/// stops before asking the cloud for anything it names.
#[test]
fn tampered_inline_manifest_is_rejected_before_any_cloud_read() {
    let env = Deployment::instant(Backend::Aws, 0);
    let (cloud, coordinator) = (&env.clouds[0], env.coordinator());
    let config = ScfsConfig::test(Mode::Blocking);
    let mut alice = env.mount("alice", config.clone(), 1);
    let data = vec![9u8; 20_000];
    alice.write_file("/shared/doc", &data).unwrap();

    // Point the inline manifest at other content, leaving the anchor hash
    // alone: swap the one chunk hash inside the stored tuple.
    let mut clock = Clock::new();
    clock.advance_to(alice.now());
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let key = tuple_key("/shared/doc");
    let mut tuple = coordinator.get(&mut ctx, &key).unwrap().value;
    let chunk_size = config.chunk_size.get() as usize;
    let honest = ChunkMap::build(&data, chunk_size).chunks()[0];
    let forged = ChunkMap::build(&[6u8; 20_000], chunk_size).chunks()[0];
    let at = tuple
        .windows(32)
        .position(|w| w == honest)
        .expect("the tuple carries the manifest inline");
    tuple[at..at + 32].copy_from_slice(&forged);
    coordinator.put(&mut ctx, &key, tuple).unwrap();

    let gets = cloud.metrics().snapshot().gets;
    let mut reader = env.mount("alice", config, 2);
    reader.sleep(SimDuration::from_secs(5));
    match reader.open("/shared/doc", OpenFlags::read_only()) {
        Err(ScfsError::Invalid { reason }) => {
            assert!(reason.contains("corrupt metadata tuple"), "{reason}")
        }
        other => panic!("a forged tuple opened: {other:?}"),
    }
    assert_eq!(reader.stats().cloud_downloads, 0);
    assert_eq!(cloud.metrics().snapshot().gets, gets);
}
