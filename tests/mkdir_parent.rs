//! `mkdir` checks its parent while its exclusive create is in flight, and
//! undoes the create when the parent check fails. Each regression is driven
//! through `FileSystem` on the replicated coordination service, on a 4-shard
//! ABD plane, and on a `NonSharing` mount (the private name space: a
//! coordination node of one):
//!
//! * a missing parent fails with `NotFound` of the parent, a regular file
//!   with `WrongType` (the check used to ask only whether the parent
//!   existed, so `mkdir("/f/sub")` made a directory under a file), and a
//!   parent the caller may not read with `PermissionDenied` of the parent's
//!   path (it used to be reported as `NotFound`);
//! * after each failure nothing is left behind: another mount cannot `stat`
//!   the child, the grandparent lists what it listed before, and the planes
//!   hold as many tuples as before;
//! * the parent's error wins over the create's own: a child that already
//!   exists under a missing parent is still `NotFound`, and is not deleted
//!   (a script the reference model of `tests/model/mod.rs` answers for);
//! * on the paper's AWS deployment a mkdir costs about one coordination round
//!   trip, like a `stat`, not two.
//!
//! A file create still checks no parent; that open hole is pinned here too.

mod model;

use model::{check, Call, Under};
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::FileType;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::workloads::setup::{Backend, Deployment};

/// What a failed mkdir of `child` must leave as it found it: the listing of
/// `grandparent` and the number of tuples in every store `fs` reaches.
fn footprint(env: &Deployment, fs: &mut ScfsAgent, grandparent: &str) -> (Vec<String>, usize) {
    let tuples = env.coordinator().entry_count() + fs.metadata_service().private_tuples();
    (fs.readdir(grandparent).unwrap(), tuples)
}

/// Runs `mkdir(child)` on `fs`, expects `expected`, and checks that the
/// failure left nothing behind: seen from a second mount of another seed (a
/// non-sharing mount has no other mount that could see its name space, so
/// there it is asked itself), the child is absent.
fn assert_fails_and_leaves_nothing(
    env: &Deployment,
    fs: &mut ScfsAgent,
    under: Under,
    child: &str,
    grandparent: &str,
    expected: ScfsError,
) {
    let before = footprint(env, fs, grandparent);
    assert_eq!(fs.mkdir(child), Err(expected), "{under:?}: mkdir({child})");
    assert_eq!(footprint(env, fs, grandparent), before, "{under:?}");
    let absent = Err(ScfsError::not_found(child));
    if let Under::NonSharing = under {
        assert_eq!(fs.stat(child).map(|md| md.path), absent, "{under:?}");
    } else {
        let mut other = env.mount("alice", ScfsConfig::test(Mode::Blocking), 99);
        assert_eq!(other.stat(child).map(|md| md.path), absent, "{under:?}");
    }
}

fn assert_a_missing_parent_is_not_found(under: Under) {
    let (env, mode) = under.deployment();
    let mut fs = env.mount("alice", ScfsConfig::test(mode), 1);
    fs.mkdir("/g").unwrap();
    fs.mkdir("/g/kept").unwrap();
    let expected = ScfsError::not_found("/g/missing");
    assert_fails_and_leaves_nothing(&env, &mut fs, under, "/g/missing/sub", "/g", expected);
}

fn assert_a_file_parent_is_the_wrong_type(under: Under) {
    let (env, mode) = under.deployment();
    let mut fs = env.mount("alice", ScfsConfig::test(mode), 1);
    fs.mkdir("/g").unwrap();
    fs.write_file("/g/f", b"a regular file").unwrap();
    let expected = ScfsError::WrongType {
        path: "/g/f".into(),
        expected: "directory",
    };
    assert_fails_and_leaves_nothing(&env, &mut fs, under, "/g/f/sub", "/g", expected);
    assert_eq!(fs.read_file("/g/f").unwrap(), b"a regular file");
}

fn assert_an_unreadable_parent_is_permission_denied(under: Under) {
    let (env, mode) = under.deployment();
    let mut alice = env.mount("alice", ScfsConfig::test(mode), 1);
    alice.mkdir("/a").unwrap();
    let mut bob = env.mount("bob", ScfsConfig::test(mode), 2);
    let denied = ScfsError::PermissionDenied { path: "/a".into() };
    assert_eq!(bob.stat("/a").map(|md| md.path), Err(denied.clone()));
    assert_fails_and_leaves_nothing(&env, &mut bob, under, "/a/x", "/", denied);
    assert_eq!(alice.readdir("/a").unwrap(), Vec::<String>::new());
}

/// A file create checks no parent: the one way to a child whose parent has
/// no tuple. A mkdir of that child answers the parent's `NotFound`, and the
/// child stays.
const THE_PARENTS_ERROR_WINS: &[Call] = &[
    Call::WriteFile("/missing/x", 1, 5),
    Call::Mkdir("/missing/x"),
    Call::ReadFile("/missing/x"),
];

#[test]
fn a_missing_parent_is_not_found_on_the_replicated_plane() {
    assert_a_missing_parent_is_not_found(Under::Replicated);
}

#[test]
fn a_missing_parent_is_not_found_on_the_four_shard_plane() {
    assert_a_missing_parent_is_not_found(Under::FourShards);
}

#[test]
fn a_missing_parent_is_not_found_in_non_sharing_mode() {
    assert_a_missing_parent_is_not_found(Under::NonSharing);
}

#[test]
fn a_file_parent_is_the_wrong_type_on_the_replicated_plane() {
    assert_a_file_parent_is_the_wrong_type(Under::Replicated);
}

#[test]
fn a_file_parent_is_the_wrong_type_on_the_four_shard_plane() {
    assert_a_file_parent_is_the_wrong_type(Under::FourShards);
}

#[test]
fn a_file_parent_is_the_wrong_type_in_non_sharing_mode() {
    assert_a_file_parent_is_the_wrong_type(Under::NonSharing);
}

#[test]
fn an_unreadable_parent_is_permission_denied_on_the_replicated_plane() {
    assert_an_unreadable_parent_is_permission_denied(Under::Replicated);
}

#[test]
fn an_unreadable_parent_is_permission_denied_on_the_four_shard_plane() {
    assert_an_unreadable_parent_is_permission_denied(Under::FourShards);
}

// No `NonSharing` case for an unreadable parent: a non-sharing mount's name
// space has one account, so no tuple in it is another account's to refuse.

#[test]
fn the_parents_error_wins_over_an_existing_child_on_the_replicated_plane() {
    check(Under::Replicated.system(), THE_PARENTS_ERROR_WINS);
}

#[test]
fn the_parents_error_wins_over_an_existing_child_on_the_four_shard_plane() {
    check(Under::FourShards.system(), THE_PARENTS_ERROR_WINS);
}

#[test]
fn the_parents_error_wins_over_an_existing_child_in_non_sharing_mode() {
    check(Under::NonSharing.system(), THE_PARENTS_ERROR_WINS);
}

/// On the paper's AWS deployment (DepSpace over the WAN), the parent lookup
/// and the create overlap: 50 mkdirs cost less than 1.5× what 50 stats do
/// (two sequential round trips would be about 2×). Each call comes after a
/// pause past the metadata cache's expiry, so every lookup is a round trip.
#[test]
fn a_mkdir_costs_about_one_round_trip_on_the_paper_deployment() {
    let env = Deployment::paper(Backend::Aws, 5);
    let mut fs = env.mount("alice", ScfsConfig::paper_default(Mode::Blocking), 1);
    fs.mkdir("/p").unwrap();
    let timed = |fs: &mut ScfsAgent, call: &dyn Fn(&mut ScfsAgent, &str)| {
        let mut total = SimDuration::ZERO;
        for i in 0..50 {
            fs.sleep(SimDuration::from_secs(1));
            let start = fs.now();
            call(fs, &format!("/p/d{i}"));
            total += fs.now() - start;
        }
        total.as_secs_f64() / 50.0
    };
    let mkdir = timed(&mut fs, &|fs, path| fs.mkdir(path).unwrap());
    let stat = timed(&mut fs, &|fs, path| {
        assert_eq!(fs.stat(path).unwrap().file_type, FileType::Directory);
    });
    assert!(
        mkdir < 1.5 * stat,
        "mean mkdir {mkdir:.4} s against mean stat {stat:.4} s"
    );
}

/// Open hole (ROADMAP item 13): a file create checks no parent. Under a
/// missing directory and under a regular file alike, `write_file` returns
/// `Ok`, and no walk of `readdir`s from the root reaches the new file: the
/// root lists neither `/missing` nor anything under it, and `/f` is a file.
/// Only a `readdir` of the parent's own path lists it. The fix adds one
/// coordination read per create, which can overlap the create the way
/// `mkdir`'s does.
#[test]
fn open_hole_a_file_create_does_not_check_its_parent() {
    for under in Under::ALL {
        let (env, mode) = under.deployment();
        let mut fs = env.mount("alice", ScfsConfig::test(mode), 1);
        fs.write_file("/f", b"a regular file").unwrap();
        fs.write_file("/missing/x", b"x").unwrap();
        fs.write_file("/f/x", b"x").unwrap();
        assert_eq!(fs.read_file("/missing/x").unwrap(), b"x", "{under:?}");
        assert_eq!(fs.read_file("/f/x").unwrap(), b"x", "{under:?}");
        assert_eq!(fs.readdir("/").unwrap(), ["/f"], "{under:?}");
        let missing = fs.stat("/missing").map(|md| md.path);
        assert_eq!(missing, Err(ScfsError::not_found("/missing")), "{under:?}");
        assert_eq!(
            fs.stat("/f").unwrap().file_type,
            FileType::File,
            "{under:?}"
        );
        assert_eq!(fs.readdir("/missing").unwrap(), ["/missing/x"], "{under:?}");
        assert_eq!(fs.readdir("/f").unwrap(), ["/f/x"], "{under:?}");
    }
}
