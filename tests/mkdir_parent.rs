//! `mkdir` checks its parent while its exclusive create is in flight, and
//! undoes the create when the parent check fails. What one account sees is
//! the spec's (`tests/spec.rs`): a missing parent is `NotFound`, a regular
//! file `WrongType`, and the parent's error wins over the create's own. What
//! it cannot script is driven here through `FileSystem`, on the replicated
//! coordination service and on a 4-shard ABD plane:
//!
//! * a parent the caller may not read fails with `PermissionDenied` of the
//!   parent's path (it used to be reported as `NotFound`), and nothing is
//!   left behind: another mount cannot `stat` the child, the grandparent
//!   lists what it listed before, and the planes hold as many tuples as
//!   before;
//! * on the paper's AWS deployment a mkdir costs about one coordination round
//!   trip, like a `stat`, not two.
//!
//! A file create still checks no parent; that open hole is pinned here too.

mod model;

use model::Under;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::FileType;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::workloads::setup::{Backend, Deployment};

/// What a failed mkdir must leave as it found it: the listing of
/// `grandparent` and the number of tuples in every store `fs` reaches.
fn footprint(env: &Deployment, fs: &mut ScfsAgent, grandparent: &str) -> (Vec<String>, usize) {
    let tuples = env.coordinator().entry_count() + fs.metadata_service().private_tuples();
    (fs.readdir(grandparent).unwrap(), tuples)
}

fn assert_an_unreadable_parent_is_permission_denied(under: Under) {
    let (env, mode) = under.deployment();
    let mut alice = env.mount("alice", ScfsConfig::test(mode), 1);
    alice.mkdir("/a").unwrap();
    let mut bob = env.mount("bob", ScfsConfig::test(mode), 2);
    let denied = ScfsError::PermissionDenied { path: "/a".into() };
    assert_eq!(bob.stat("/a").map(|md| md.path), Err(denied.clone()));
    let before = footprint(&env, &mut bob, "/");
    assert_eq!(bob.mkdir("/a/x"), Err(denied), "{under:?}");
    assert_eq!(footprint(&env, &mut bob, "/"), before, "{under:?}");
    let mut other = env.mount("alice", ScfsConfig::test(Mode::Blocking), 99);
    let absent = Err(ScfsError::not_found("/a/x"));
    assert_eq!(other.stat("/a/x").map(|md| md.path), absent, "{under:?}");
    assert_eq!(alice.readdir("/a").unwrap(), Vec::<String>::new());
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
