//! The lock release after a close (paper §2.5.2, Figure 4): what a close
//! waits for, what a reopen waits for, and three lock holes that are still
//! open.
//!
//! A blocking close promises that the data is in the cloud and that its root
//! hash is anchored in the coordination service. The unlock behind the
//! anchor promises the closer nothing, so the close returns at the anchor
//! and the release lands one coordination write later, on the object's
//! background lane. The lock is re-entrant per session, so a write-open by
//! the same agent waits for that release before it locks.

use scfs_repro::cloud_store::types::Permission;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{FileHandle, OpenFlags};
use scfs_repro::sim_core::time::{SimDuration, SimInstant};
use scfs_repro::workloads::setup::{Backend, Deployment};

const DOC: &str = "/shared/doc";

/// alice and bob mounted in `mode` on `deployment`; alice has written `v1`
/// to [`DOC`] and granted bob write access.
fn alice_shares_with_bob(deployment: &Deployment, mode: Mode) -> (ScfsAgent, ScfsAgent) {
    let mut alice = deployment.mount("alice", ScfsConfig::test(mode), 1);
    let bob = deployment.mount("bob", ScfsConfig::test(mode), 2);
    alice.write_file(DOC, b"v1").unwrap();
    alice
        .setfacl(DOC, &"bob".into(), Permission::Write)
        .unwrap();
    (alice, bob)
}

/// Advances `fs` to `at`, if it is not there yet.
fn sleep_until(fs: &mut ScfsAgent, at: SimInstant) {
    if at > fs.now() {
        fs.sleep(at.duration_since(fs.now()));
    }
}

/// alice's dirty close of [`DOC`], writing `data`: returns how long the
/// close took.
fn dirty_close(alice: &mut ScfsAgent, data: &[u8]) -> SimDuration {
    let h = alice.open(DOC, OpenFlags::read_write()).unwrap();
    alice.write(h, 0, data).unwrap();
    let start = alice.now();
    alice.close(h).unwrap();
    alice.now().duration_since(start)
}

#[test]
fn a_blocking_close_returns_at_the_anchor_and_the_release_lands_one_write_later() {
    let deployment = Deployment::paper(Backend::Aws, 20140614);
    let (mut alice, _bob) = alice_shares_with_bob(&deployment, Mode::Blocking);
    alice.sleep(SimDuration::from_secs(1));
    let close = dirty_close(&mut alice, b"v2");
    // The release is one update on the single EC2 node (58–92 ms RTT plus
    // 2–6 ms processing), and nothing else is in flight.
    let release = alice.background_drain_instant().duration_since(alice.now());
    assert!(
        release >= SimDuration::from_millis(60) && release <= SimDuration::from_millis(98),
        "the release lands one coordination write after the close returns, not {release}"
    );
    // What the close still waits for: the chunk PUT and the anchor update.
    assert!(close > SimDuration::from_millis(60), "close took {close}");
}

#[test]
fn a_read_open_right_after_the_close_sees_the_new_bytes() {
    let deployment = Deployment::paper(Backend::Aws, 20140614);
    let (mut alice, mut bob) = alice_shares_with_bob(&deployment, Mode::Blocking);
    alice.sleep(SimDuration::from_secs(1));
    dirty_close(&mut alice, b"v2");
    let released = alice.background_drain_instant();
    // bob's first look at the file, 1 ms after alice's close returned and
    // before her release has landed: consistency-on-close holds at the
    // anchor.
    sleep_until(&mut bob, alice.now() + SimDuration::from_millis(1));
    assert!(bob.now() < released);
    assert_eq!(bob.read_file(DOC).unwrap(), b"v2");
}

#[test]
fn a_reopen_waits_for_its_own_release_so_the_lock_it_takes_holds() {
    for seed in 0..50 {
        let deployment = Deployment::paper(Backend::Aws, seed);
        let (mut alice, mut bob) = alice_shares_with_bob(&deployment, Mode::Blocking);
        alice.sleep(SimDuration::from_secs(1));
        dirty_close(&mut alice, b"v2");
        let released = alice.background_drain_instant();
        // Re-entering the lock before the release lands would "re-acquire"
        // an entry the release then deletes.
        let _reopened = alice.open(DOC, OpenFlags::read_write()).unwrap();
        sleep_until(&mut bob, released + SimDuration::from_millis(1));
        let refused = bob.open(DOC, OpenFlags::read_write());
        assert!(
            matches!(refused, Err(ScfsError::Locked { .. })),
            "seed {seed}: bob's write-open got {refused:?} while alice's handle is open"
        );
    }
}

#[test]
fn a_clean_close_releases_on_the_lane_and_pays_no_round_trip() {
    let deployment = Deployment::paper(Backend::Aws, 20140614);
    let (mut alice, mut bob) = alice_shares_with_bob(&deployment, Mode::Blocking);
    alice.sleep(SimDuration::from_secs(1));
    let h = alice.open(DOC, OpenFlags::read_write()).unwrap();
    let start = alice.now();
    alice.close(h).unwrap();
    assert_eq!(alice.now(), start, "a clean close waits for nothing");
    let released = alice.background_drain_instant();
    assert!(released > alice.now(), "the release is still sent");
    sleep_until(&mut bob, released + SimDuration::from_millis(1));
    let h = bob.open(DOC, OpenFlags::read_write()).unwrap();
    bob.close(h).unwrap();
}

/// An open hole, pinned as it behaves: a non-blocking close keeps its
/// release inside the in-flight commit, and a write-open by the same agent
/// re-enters the lock before that release lands, so the reopened handle
/// ends up holding no lock. A fix makes the reopen wait for the commit —
/// a reopen right after a non-blocking close would then wait for the
/// upload — and flips the last assertion to `ScfsError::Locked`.
#[test]
fn open_hole_a_non_blocking_reopen_loses_its_lock_to_the_in_flight_release() {
    let deployment = Deployment::paper(Backend::Aws, 5);
    let (mut alice, mut bob) = alice_shares_with_bob(&deployment, Mode::NonBlocking);
    alice.sleep(SimDuration::from_secs(1));
    dirty_close(&mut alice, b"v2");
    let released = alice
        .upload_token(DOC)
        .expect("commit in flight")
        .ready_at();
    assert!(released > alice.now());
    // Re-entrant: the lock entry exists, so nothing new is created...
    let _reopened = alice.open(DOC, OpenFlags::read_write()).unwrap();
    // ...and the commit's unlock deletes it.
    sleep_until(&mut bob, released + SimDuration::from_secs(1));
    assert_eq!(
        bob.open(DOC, OpenFlags::read_write()).unwrap(),
        FileHandle(1),
        "bob takes the lock while alice's reopened handle is still open"
    );
}

/// An open hole, pinned as it behaves: a write-open locks *after* it looks
/// the file up, and the lookup may be served by the metadata cache. bob's
/// cached tuple predates alice's append; once her lock is released he locks
/// the file, appends to the stale version and anchors it over hers: his
/// close's `cas` on the cached version is refused, and it re-applies its own
/// fields, the stale-based version among them, to the tuple it re-reads. A
/// fix reads the tuple afresh after the lock is taken (one more coordination
/// read per write-open, ROADMAP item 12); it flips the last assertion to
/// `baseAB`.
#[test]
fn open_hole_a_write_open_trusts_metadata_read_before_its_lock() {
    let deployment = Deployment::instant(Backend::Aws, 3);
    let mut alice = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
    let mut bob = deployment.mount("bob", ScfsConfig::test(Mode::Blocking), 2);
    let expiry = ScfsConfig::test(Mode::Blocking).metadata_cache_expiry;
    assert_eq!(expiry, SimDuration::from_millis(500));
    alice.write_file(DOC, b"base").unwrap();
    alice
        .setfacl(DOC, &"bob".into(), Permission::Write)
        .unwrap();
    sleep_until(&mut bob, alice.now() + SimDuration::from_secs(1));
    assert_eq!(bob.stat(DOC).unwrap().size, 4, "bob caches the tuple");

    sleep_until(&mut alice, bob.now());
    let h = alice.open(DOC, OpenFlags::read_write()).unwrap();
    alice.write(h, 4, b"A").unwrap();
    alice.close(h).unwrap();

    sleep_until(&mut bob, alice.now() + SimDuration::from_millis(100));
    let h = bob.open(DOC, OpenFlags::read_write()).unwrap();
    let end = bob.handle_size(h).unwrap();
    bob.write(h, end, b"B").unwrap();
    bob.close(h).unwrap();

    alice.sleep(SimDuration::from_secs(1));
    assert_eq!(
        alice.read_file(DOC).unwrap(),
        b"baseB",
        "alice's append is lost"
    );
}

/// An open hole (ROADMAP item 7(i)): two mounts of one account hand out one
/// storage id. Each mount numbers the files it creates from 1, so the first
/// file either creates is `alice-f1`, and the write lock is keyed by the
/// storage id: while mount A keeps `/shared/a` open for write, mount B
/// cannot open `/shared/b`, a file nobody else touches. A fix (ids unique
/// per account) flips the `Locked` assertion to `Ok` and the two ids apart.
#[test]
fn open_hole_two_mounts_of_one_account_hand_out_one_storage_id() {
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let deployment = Deployment::instant(backend, 5);
        let mut a = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
        let mut b = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 2);
        let h = a.open("/shared/a", OpenFlags::create()).unwrap();
        sleep_until(&mut b, a.now() + SimDuration::from_secs(1));
        match b.open("/shared/b", OpenFlags::create()) {
            Err(ScfsError::Locked { holder, .. }) => assert_eq!(holder, "alice-1"),
            other => panic!("{backend:?}: {other:?}"),
        }
        a.close(h).unwrap();
        sleep_until(&mut a, b.now() + SimDuration::from_secs(1));
        for path in ["/shared/a", "/shared/b"] {
            assert_eq!(a.stat(path).unwrap().storage_id, "alice-f1", "{backend:?}");
        }
    }
}
