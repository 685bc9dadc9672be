//! `rename` and `readdir` are path operations, not string-prefix ones — four
//! regressions, each driven through `FileSystem` on the replicated
//! coordination service, on a 4-shard ABD plane, and on a `NonSharing` mount
//! (the private name space: a coordination node of one, under the same
//! `TupleStore` path rules as the replicated plane):
//!
//! * `rename("/a", "/c")` moves `/a` and the subtree under `/a/`, and leaves
//!   the sibling `/ab` where it is (the coordination planes used to match raw
//!   key prefixes and move it to `/cb`);
//! * `rename("/a", "/b")` over an existing `/b` that was `stat`ed within the
//!   metadata-cache expiry serves `/a`'s bytes at once (the cached tuple of
//!   the destination used to survive the rename for up to 500 ms — in every
//!   mode, non-sharing included);
//! * `readdir("/a")` lists `/a`'s direct children, a child named like its
//!   parent (`/a/a`) included and that child's own children not (the
//!   coordinated modes used to strip the parent's name repeatedly, drop
//!   `/a/a` and list `/a/a/x` in its place);
//! * a `rename` of another account's directory is refused with
//!   `PermissionDenied` of the path asked for (it used to name the
//!   coordination key, `/scfs/meta/a`), and moves nothing. Not in
//!   non-sharing mode, where no other account shares the name space.

use scfs_repro::coord::sharded::ShardTopology;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::workloads::setup::{Backend, Deployment, Plane, Providers};

/// The three mounts every regression runs on.
#[derive(Debug, Clone, Copy)]
enum Under {
    Replicated,
    FourShards,
    NonSharing,
}

/// `alice`, with the paper's 500 ms metadata cache, on a fresh instantaneous
/// deployment.
fn mount(under: Under) -> ScfsAgent {
    let (deployment, mode) = deployment(under);
    deployment.mount("alice", ScfsConfig::test(mode), 1)
}

/// A fresh instantaneous deployment, and the mode its mounts run in.
fn deployment(under: Under) -> (Deployment, Mode) {
    let spec = Deployment::on(Backend::Aws).providers(Providers::Instantaneous);
    let (plane, mode) = match under {
        Under::Replicated => (Plane::Instantaneous, Mode::Blocking),
        Under::FourShards => (Plane::Sharded(ShardTopology::test(4)), Mode::Blocking),
        Under::NonSharing => (Plane::Instantaneous, Mode::NonSharing),
    };
    (spec.plane(plane).build(3), mode)
}

fn assert_rename_leaves_siblings_that_share_a_name_prefix(under: Under) {
    let mut fs = mount(under);
    for (path, data) in [
        ("/a", "a"),
        ("/ab", "ab"),
        ("/d/x", "d/x"),
        ("/d/sub/y", "d/sub/y"),
        ("/dx", "dx"),
    ] {
        fs.write_file(path, data.as_bytes()).unwrap();
    }

    // A file: only the file moves.
    fs.rename("/a", "/c").unwrap();
    assert_eq!(fs.read_file("/c").unwrap(), b"a");
    assert!(fs.stat("/a").is_err());
    assert_eq!(fs.read_file("/ab").unwrap(), b"ab", "/ab stays");
    assert!(fs.stat("/cb").is_err(), "/ab must not become /cb");

    // A directory: its subtree moves, its namesake sibling does not.
    fs.rename("/d", "/e").unwrap();
    assert_eq!(fs.read_file("/e/x").unwrap(), b"d/x");
    assert_eq!(fs.read_file("/e/sub/y").unwrap(), b"d/sub/y");
    assert!(fs.stat("/d/x").is_err());
    assert_eq!(fs.read_file("/dx").unwrap(), b"dx", "/dx stays");
    assert!(fs.stat("/ex").is_err(), "/dx must not become /ex");
}

fn assert_rename_over_a_just_statted_destination_serves_the_source_at_once(under: Under) {
    let mut fs = mount(under);
    fs.write_file("/a", b"the bytes of a").unwrap();
    fs.write_file("/b", b"old b").unwrap();
    let old = fs.stat("/b").unwrap();
    let moved = fs.stat("/a").unwrap();

    fs.rename("/a", "/b").unwrap();
    let new = fs.stat("/b").unwrap();
    assert_eq!(new.storage_id, moved.storage_id);
    assert_ne!(new.storage_id, old.storage_id);
    assert_eq!(new.size, moved.size);
    assert_eq!(fs.read_file("/b").unwrap(), b"the bytes of a");
    assert!(fs.stat("/a").is_err());
}

fn assert_readdir_lists_direct_children_even_one_named_like_its_parent(under: Under) {
    let mut fs = mount(under);
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/a").unwrap();
    for path in ["/a/a/x", "/a/ab", "/a/b", "/ab"] {
        fs.write_file(path, path.as_bytes()).unwrap();
    }
    assert_eq!(fs.readdir("/a").unwrap(), ["/a/a", "/a/ab", "/a/b"]);
    assert_eq!(fs.readdir("/a/a").unwrap(), ["/a/a/x"]);
    assert_eq!(fs.readdir("/").unwrap(), ["/a", "/ab"]);
}

fn assert_a_denied_rename_names_the_path_asked_for(under: Under) {
    let (env, mode) = deployment(under);
    let mut alice = env.mount("alice", ScfsConfig::test(mode), 1);
    alice.mkdir("/a").unwrap();
    alice.write_file("/a/f", b"alice's").unwrap();
    let mut bob = env.mount("bob", ScfsConfig::test(mode), 2);
    assert_eq!(
        bob.rename("/a", "/b"),
        Err(ScfsError::PermissionDenied { path: "/a".into() })
    );
    assert_eq!(alice.read_file("/a/f").unwrap(), b"alice's");
    assert!(alice.stat("/b").is_err(), "nothing moved");
}

#[test]
fn rename_leaves_prefix_siblings_on_the_replicated_plane() {
    assert_rename_leaves_siblings_that_share_a_name_prefix(Under::Replicated);
}

#[test]
fn rename_leaves_prefix_siblings_on_the_four_shard_plane() {
    assert_rename_leaves_siblings_that_share_a_name_prefix(Under::FourShards);
}

#[test]
fn rename_leaves_prefix_siblings_in_non_sharing_mode() {
    assert_rename_leaves_siblings_that_share_a_name_prefix(Under::NonSharing);
}

#[test]
fn rename_over_a_statted_destination_is_visible_at_once_on_the_replicated_plane() {
    assert_rename_over_a_just_statted_destination_serves_the_source_at_once(Under::Replicated);
}

#[test]
fn rename_over_a_statted_destination_is_visible_at_once_on_the_four_shard_plane() {
    assert_rename_over_a_just_statted_destination_serves_the_source_at_once(Under::FourShards);
}

#[test]
fn rename_over_a_statted_destination_is_visible_at_once_in_non_sharing_mode() {
    assert_rename_over_a_just_statted_destination_serves_the_source_at_once(Under::NonSharing);
}

#[test]
fn readdir_lists_a_child_named_like_its_parent_on_the_replicated_plane() {
    assert_readdir_lists_direct_children_even_one_named_like_its_parent(Under::Replicated);
}

#[test]
fn readdir_lists_a_child_named_like_its_parent_on_the_four_shard_plane() {
    assert_readdir_lists_direct_children_even_one_named_like_its_parent(Under::FourShards);
}

#[test]
fn readdir_lists_a_child_named_like_its_parent_in_non_sharing_mode() {
    assert_readdir_lists_direct_children_even_one_named_like_its_parent(Under::NonSharing);
}

#[test]
fn a_denied_rename_names_the_path_on_the_replicated_plane() {
    assert_a_denied_rename_names_the_path_asked_for(Under::Replicated);
}

#[test]
fn a_denied_rename_names_the_path_on_the_four_shard_plane() {
    assert_a_denied_rename_names_the_path_asked_for(Under::FourShards);
}
