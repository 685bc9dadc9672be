//! End-to-end integration tests spanning the whole stack: simulated clouds,
//! replicated coordination service, DepSky, the SCFS agent and the baselines.

use scfs_repro::cloud_store::store::OpCtx;
use scfs_repro::cloud_store::types::{Acl, Permission};
use scfs_repro::coord::sharded::ShardTopology;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{OpenFlags, MAX_FILE_LEN};
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{
    build_system, Backend, Deployment, Plane, Providers, SystemKind,
};

/// The baselines bound a write and a truncate by the maximum file size and
/// answer as the agent does, instead of panicking on the end-offset
/// arithmetic or the allocation; and an empty write changes nothing.
#[test]
fn baselines_refuse_to_grow_a_file_past_the_maximum_size() {
    for kind in [SystemKind::LocalFs, SystemKind::S3fs, SystemKind::S3ql] {
        let label = kind.label();
        let mut fs = build_system(kind, 7);
        fs.write_file("/f", b"ok").unwrap();
        let versions = fs.stat("/f").unwrap().version_count;
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        for offset in [u64::MAX - 1, MAX_FILE_LEN - 1] {
            let refused = fs.write(h, offset, b"boom");
            assert!(
                matches!(refused, Err(ScfsError::Invalid { .. })),
                "{label}: write at {offset}: {refused:?}"
            );
        }
        let refused = fs.truncate(h, u64::MAX);
        assert!(
            matches!(refused, Err(ScfsError::Invalid { .. })),
            "{label}: {refused:?}"
        );
        assert_eq!(fs.write(h, 1 << 20, b"").unwrap(), 0, "{label}");
        assert_eq!(fs.handle_size(h).unwrap(), 2, "{label}: extended");
        fs.close(h).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"ok", "{label}");
        let after = fs.stat("/f").unwrap().version_count;
        assert_eq!(after, versions, "{label}: the close committed a version");
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

/// A private file its owner shares outside `/shared` stays visible to the
/// owner: its tuple moves to the coordination service, where the grantee
/// reads it, and the private tuple stays behind, carrying the shared ACL, as
/// the marker that sends the owner's lookups there — across a rename too.
#[test]
fn a_private_file_shared_outside_the_shared_tree_stays_visible_to_its_owner() {
    for mode in [Mode::Blocking, Mode::NonBlocking] {
        let env = Deployment::instant(Backend::Aws, 7);
        let mut config = ScfsConfig::test(mode);
        config.private_name_spaces = true;
        let mut alice = env.mount("alice", config, 1);
        let mut bob = env.mount("bob", ScfsConfig::test(mode), 2);
        alice.mkdir("/docs").unwrap();
        alice.write_file("/docs/report", b"q3 numbers").unwrap();
        alice
            .setfacl("/docs/report", &"bob".into(), Permission::Read)
            .unwrap();
        // Past the 500 ms metadata cache: every lookup reads a store.
        alice.sleep(SimDuration::from_secs(2));
        assert_eq!(alice.stat("/docs/report").unwrap().size, 10, "{mode:?}");
        assert_eq!(alice.read_file("/docs/report").unwrap(), b"q3 numbers");
        alice.copy_file("/docs/report", "/docs/copy").unwrap();
        assert_eq!(
            alice.readdir("/docs").unwrap(),
            ["/docs/copy", "/docs/report"]
        );
        bob.sleep(alice.now().duration_since(bob.now()));
        assert_eq!(bob.read_file("/docs/report").unwrap(), b"q3 numbers");

        alice.rename("/docs", "/d2").unwrap();
        alice.sleep(SimDuration::from_secs(2));
        assert_eq!(alice.read_file("/d2/report").unwrap(), b"q3 numbers");
        assert_eq!(alice.readdir("/d2").unwrap(), ["/d2/copy", "/d2/report"]);
    }
}

/// What one call answers on a path: the variant of its error, or what it
/// returned with the path itself written as `P`, so the answers for two
/// different paths compare.
fn answer_on(fs: &mut ScfsAgent, call: &str, path: &str) -> Result<String, String> {
    let answer = match call {
        "readdir" => fs.readdir("/docs").map(|names| format!("{names:?}")),
        "stat" => fs.stat(path).map(|md| format!("{:?}", md.file_type)),
        "write_file" => fs.write_file(path, b"again").map(|()| String::new()),
        "copy_file" => fs.copy_file("/docs/src", path).map(|()| String::new()),
        "mkdir" => fs.mkdir(path).map(|()| String::new()),
        "rename" => fs.rename(path, "/docs/moved").map(|()| String::new()),
        "unlink" => fs.unlink(path).map(|()| String::new()),
        "getfacl" => fs.getfacl(path).map(|acl| format!("{acl:?}")),
        "setfacl" => fs
            .setfacl(path, &"bob".into(), Permission::Read)
            .map(|()| String::new()),
        other => unreachable!("no call {other}"),
    };
    let answer = answer.map(|ok| ok.replace(path, "P"));
    answer.map_err(|e| format!("{:?}", std::mem::discriminant(&e)))
}

/// A deleted file has one representation, no tuple, so an unlinked path
/// answers every call as a path that was never created does. The spec
/// (`tests/spec.rs`) states that for every mode on an instantaneous
/// deployment; this is the case it cannot script: on the paper deployment
/// a non-blocking unlink lands later, on the object's lane behind the
/// upload. Its writer gets the same answers before it lands, with the
/// private name space on or off, right after the unlink and once the
/// metadata cache has expired, and a create of the name waits for the
/// delete instead of meeting the old tuple.
#[test]
fn an_unlinked_path_answers_like_one_never_created() {
    let calls = [
        "readdir",
        "stat",
        "write_file",
        "copy_file",
        "mkdir",
        "rename",
        "unlink",
        "getfacl",
        "setfacl",
    ];
    let mut windows = 0;
    for pns in [false, true] {
        for pause in [SimDuration::ZERO, SimDuration::from_secs(2)] {
            // A fresh mount per call: /docs/src exists, /docs/notes was
            // written and unlinked, /docs/fresh never existed.
            let setup = || {
                let mut config = ScfsConfig::test(Mode::NonBlocking);
                config.private_name_spaces = pns;
                let mut fs = Deployment::paper(Backend::Aws, 7).mount("alice", config, 1);
                fs.write_file("/docs/src", b"source").unwrap();
                fs.write_file("/docs/notes", b"draft").unwrap();
                let upload = fs.upload_token("/docs/notes");
                fs.unlink("/docs/notes").unwrap();
                fs.sleep(pause);
                let in_flight = upload.is_some_and(|u| fs.now() < u.ready_at());
                (fs, in_flight)
            };
            let (_, in_flight) = setup();
            windows += usize::from(in_flight);
            for call in calls {
                let unlinked = answer_on(&mut setup().0, call, "/docs/notes");
                let fresh = answer_on(&mut setup().0, call, "/docs/fresh");
                assert_eq!(
                    unlinked, fresh,
                    "{call}: PNS {pns}, after {pause}, in flight {in_flight}"
                );
            }
        }
    }
    assert_eq!(windows, 2, "right after the unlink");
}

/// The unlink of a file whose non-blocking upload is still in flight is a
/// delete on the object's lane, behind that upload: its writer sees the file
/// gone at once, another client until the delete lands, and afterwards the
/// name is free and the collector leaves nothing behind.
#[test]
fn unlink_during_an_in_flight_upload_hides_the_file_from_its_writer_at_once() {
    let env = Deployment::paper(Backend::Aws, 17);
    let mut config = ScfsConfig::paper_default(Mode::NonBlocking);
    config.gc.written_bytes_threshold = Bytes::new(1);
    let mut alice = env.mount("alice", config, 1);
    let mut bob = env.mount("bob", ScfsConfig::paper_default(Mode::NonBlocking), 2);
    let not_found = |r: Result<_, ScfsError>| matches!(r, Err(ScfsError::NotFound { .. }));

    alice.write_file("/shared/doc", &[1u8; 300_000]).unwrap();
    alice
        .setfacl("/shared/doc", &"bob".into(), Permission::Read)
        .unwrap();
    alice.write_file("/shared/doc", &[2u8; 300_000]).unwrap();
    let upload = alice.upload_token("/shared/doc").expect("upload in flight");
    alice.unlink("/shared/doc").unwrap();
    assert!(alice.now() < upload.ready_at(), "the unlink did not wait");
    assert!(not_found(alice.stat("/shared/doc")));
    let landed = alice.background_drain_instant();
    assert!(
        landed > upload.ready_at(),
        "the delete lands behind the upload"
    );

    bob.sleep(alice.now().duration_since(bob.now()));
    assert!(bob.stat("/shared/doc").is_ok(), "not deleted for bob yet");
    // Past the landing instant and bob's metadata cache.
    bob.sleep(landed.duration_since(bob.now()) + SimDuration::from_secs(1));
    assert!(not_found(bob.stat("/shared/doc")));

    alice.sleep(landed.duration_since(alice.now()));
    assert!(not_found(alice.stat("/shared/doc")));
    alice.write_file("/shared/doc", b"new").unwrap();
    assert_eq!(alice.read_file("/shared/doc").unwrap(), b"new");
    // That write ran a GC cycle, which released the unlinked object.
    alice.sleep(alice.background_drain_instant().duration_since(alice.now()));
    assert_eq!(alice.stats().gc_runs, 3, "one per close");
    assert_eq!(alice.stats().gc_errors, 0);
    assert_eq!(env.orphans(), Vec::<String>::new());
}

/// An open hole, pinned as it behaves: a non-blocking unlink deletes the
/// tuple on the object's lane, behind the in-flight upload, but a rename of
/// the parent issued before that delete lands applies at an earlier virtual
/// instant, and carries the file's tuple — as it was before the upload
/// committed — to the new name. A fix (a rename that waits for the deferred
/// deletes under its prefix, say) flips the last assertion to `NotFound`.
#[test]
fn open_hole_a_rename_before_a_deferred_unlink_lands_carries_the_file_along() {
    let env = Deployment::paper(Backend::Aws, 19);
    let mut fs = env.mount("alice", ScfsConfig::test(Mode::NonBlocking), 1);
    fs.write_file("/d/f", &[1u8; 300_000]).unwrap();
    assert!(fs.upload_token("/d/f").is_some());
    fs.unlink("/d/f").unwrap();
    fs.rename("/d", "/e").unwrap();
    fs.sleep(SimDuration::from_secs(30));
    assert!(matches!(fs.stat("/d/f"), Err(ScfsError::NotFound { .. })));
    let carried = fs.stat("/e/f").map(|md| md.size);
    assert!(matches!(carried, Ok(0)), "{carried:?}");
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
    let honest = config.chunk_map(&data).chunks()[0];
    let forged = config.chunk_map(&[6u8; 20_000]).chunks()[0];
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

/// Open hole, pinned as it behaves: with a private name space, a rename
/// across the `/shared` boundary moves the tuple within the store it was
/// in, while every later lookup of the new name asks the store the new name
/// routes to. So a directory renamed out of `/shared` is gone for its
/// owner's `stat` and `open`, and a private file renamed into `/shared`
/// too, though a listing still shows them. A fix moves the tuple between
/// the stores, as `setfacl` does.
#[test]
fn open_hole_a_rename_across_the_shared_tree_hides_it_from_a_private_name_space() {
    for mode in [Mode::Blocking, Mode::NonBlocking] {
        let mut config = ScfsConfig::test(mode);
        config.private_name_spaces = true;
        let mut fs = Deployment::instant(Backend::Aws, 7).mount("alice", config, 1);
        fs.write_file("/shared/d/f", b"shared").unwrap();
        fs.write_file("/p", b"private").unwrap();
        fs.rename("/shared/d", "/d").unwrap();
        fs.rename("/p", "/shared/p").unwrap();
        fs.sleep(SimDuration::from_secs(1));
        for path in ["/d/f", "/shared/p"] {
            let hidden = fs.read_file(path);
            assert!(
                matches!(hidden, Err(ScfsError::NotFound { .. })),
                "{mode:?}: {hidden:?}"
            );
        }
        assert_eq!(fs.readdir("/d").unwrap(), ["/d/f"], "{mode:?}");
        assert_eq!(fs.readdir("/shared").unwrap(), ["/shared/p"], "{mode:?}");
    }
}

/// A handle follows its file across a rename, as a descriptor does: once
/// the file is renamed, the old path is gone for a `stat`, and the handle's
/// close commits the new version under the new name, bringing nothing back
/// under the old one.
#[test]
fn a_handle_open_across_a_rename_commits_under_the_new_name() {
    for mode in [Mode::Blocking, Mode::NonBlocking, Mode::NonSharing] {
        let mut fs = Deployment::instant(Backend::Aws, 7).mount("alice", ScfsConfig::test(mode), 1);
        fs.write_file("/a", b"old").unwrap();
        let h = fs.open("/a", OpenFlags::read_write()).unwrap();
        fs.write(h, 0, b"new!").unwrap();
        fs.rename("/a", "/b").unwrap();
        let stat = fs.stat("/a").map(|md| md.size);
        assert!(
            matches!(stat, Err(ScfsError::NotFound { .. })),
            "{mode:?}: {stat:?}"
        );
        fs.close(h).unwrap();
        fs.sleep(SimDuration::from_secs(1));
        assert_eq!(fs.read_file("/b").unwrap(), b"new!", "{mode:?}");
        let gone = fs.read_file("/a");
        assert!(
            matches!(gone, Err(ScfsError::NotFound { .. })),
            "{mode:?}: {gone:?}"
        );
    }
}

/// `sync` commits a dirty handle only. A handle that only created its file
/// is clean: the tuple the create wrote already describes the empty file,
/// so its sync commits nothing over the version another handle closed
/// since.
#[test]
fn a_sync_of_a_clean_creating_handle_keeps_a_later_version() {
    for mode in [Mode::Blocking, Mode::NonBlocking, Mode::NonSharing] {
        let mut fs = Deployment::instant(Backend::Aws, 7).mount("alice", ScfsConfig::test(mode), 1);
        let created = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write_file("/f", b"later").unwrap();
        fs.sync(created).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"later", "{mode:?}");
    }
}

/// A commit is a `cas` on the tuple its handle read at open: a grant made
/// while a dirty handle is open refuses that handle's first write, and the
/// close re-applies only its own fields to the tuple it re-reads, so the
/// grant survives, on the tuple and on the bytes the grantee reads. With a
/// private name space the grant makes the private tuple a marker, and the
/// close re-reads and writes the coordination service's tuple instead.
#[test]
fn a_close_keeps_a_grant_made_while_its_handle_was_open() {
    let bob = "bob".into();
    let planes = [
        (Plane::Instantaneous, false),
        (Plane::Sharded(ShardTopology::test(4)), false),
        (Plane::Instantaneous, true),
    ];
    for (plane, private_name_space) in planes {
        let spec = Deployment::on(Backend::Aws).providers(Providers::Instantaneous);
        let deployment = spec.plane(plane).build(7);
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.private_name_spaces = private_name_space;
        let mut fs = deployment.mount("alice", config, 1);
        let h = fs.open("/a", OpenFlags::create()).unwrap();
        fs.write(h, 0, b"draft").unwrap();
        fs.setfacl("/a", &bob, Permission::Read).unwrap();
        assert!(fs.getfacl("/a").unwrap().allows(&bob, Permission::Read));
        fs.close(h).unwrap();
        fs.sleep(SimDuration::from_secs(1));
        assert_eq!(fs.read_file("/a").unwrap(), b"draft");
        assert!(fs.getfacl("/a").unwrap().allows(&bob, Permission::Read));
        let mut reader = deployment.mount("bob", ScfsConfig::test(Mode::Blocking), 2);
        reader.sleep(fs.now().duration_since(reader.now()));
        assert_eq!(reader.read_file("/a").unwrap(), b"draft");
    }
}

/// A commit hands the handle the tuple at the version it wrote, so a `sync`
/// and then a `close` of one handle each write once, on both planes: the
/// close's `cas` and its lock release are its only coordination calls.
#[test]
fn a_sync_then_a_close_of_one_handle_are_never_refused() {
    for plane in [Plane::Instantaneous, Plane::Sharded(ShardTopology::test(4))] {
        let spec = Deployment::on(Backend::Aws).providers(Providers::Instantaneous);
        let deployment = spec.plane(plane.clone()).build(7);
        let mut fs = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, b"one").unwrap();
        fs.sync(h).unwrap();
        fs.write(h, 3, b"two").unwrap();
        let before = deployment.coordinator().access_count();
        fs.close(h).unwrap();
        let calls = deployment.coordinator().access_count() - before;
        assert_eq!(calls, 2, "{plane:?}");
        assert_eq!(fs.read_file("/f").unwrap(), b"onetwo", "{plane:?}");
    }
}

/// A non-blocking close whose anchor update lands between a `setfacl`'s
/// read of the tuple and its write, on a plane whose calls take time:
/// bob's close, running first on its object's lane, commits the tuple in
/// the window; alice's write is refused, re-reads the tuple and grants on
/// it. Both changes survive.
#[test]
fn a_close_landing_inside_a_setfacl_survives_it() {
    let (bob, carol) = ("bob".into(), "carol".into());
    let planes = [
        (Plane::Paper, 40),
        (Plane::Sharded(ShardTopology::metro(2, 1)), 5),
    ];
    for (plane, lead_ms) in planes {
        let spec = Deployment::on(Backend::Aws).providers(Providers::Instantaneous);
        let deployment = spec.plane(plane.clone()).build(7);
        let mut alice = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        alice.write_file("/shared/doc", b"alice's").unwrap();
        alice
            .setfacl("/shared/doc", &bob, Permission::Write)
            .unwrap();
        let mut fs = deployment.mount("bob", ScfsConfig::test(Mode::NonBlocking), 2);
        fs.sleep(alice.now().duration_since(fs.now()) + SimDuration::from_secs(1));
        let h = fs.open("/shared/doc", OpenFlags::read_write()).unwrap();
        fs.write(h, 0, b"bob's!!").unwrap();
        let closed = fs.now();
        fs.close(h).unwrap();
        // The close's `cas` commits about one call after `closed`; starting
        // `lead_ms` before `closed`, the grant reads before that and writes
        // after it.
        let lead = SimDuration::from_millis(lead_ms);
        alice.sleep(closed.duration_since(alice.now()).saturating_sub(lead));
        let before = deployment.coordinator().access_count();
        alice
            .setfacl("/shared/doc", &carol, Permission::Read)
            .unwrap();
        let calls = deployment.coordinator().access_count() - before;
        assert!(
            calls > 3,
            "{plane:?}: the grant was refused once ({calls} calls)"
        );
        alice.sleep(SimDuration::from_secs(2));
        assert_eq!(
            alice.read_file("/shared/doc").unwrap(),
            b"bob's!!",
            "{plane:?}"
        );
        let acl = alice.getfacl("/shared/doc").unwrap();
        assert!(acl.allows(&bob, Permission::Write), "{plane:?}: {acl:?}");
        assert!(acl.allows(&carol, Permission::Read), "{plane:?}: {acl:?}");
    }
}
