//! `rename` and `readdir` are path operations, not string-prefix ones —
//! six regressions, each on the replicated coordination service, on a
//! 4-shard ABD plane, and on a `NonSharing` mount (the private name space: a
//! coordination node of one, under the same `TupleStore` path rules as the
//! replicated plane). The first five are scripts the reference model of
//! `tests/model/mod.rs` answers for:
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
//! * `rename("/shared", …)` right after `unlink("/shared")` moves what is
//!   left under `/shared/` (it used to answer `NotFound` until the metadata
//!   cache forgot the unlinked path);
//! * a `rename` over a file this mount holds open orphans that handle, as
//!   POSIX orphans the clobbered inode: after an unlink of the name, `stat`
//!   no longer answers the handle's size (minimized from the spec at 6 000
//!   cases) — `to` itself, or a name under it that a moved name overwrites;
//! * a `rename` of another account's directory is refused with
//!   `PermissionDenied` of the path asked for (it used to name the
//!   coordination key, `/scfs/meta/a`), and moves nothing. Not in
//!   non-sharing mode, where no other account shares the name space.

mod model;

use model::{check, Call, Under};
use scfs_repro::scfs::config::ScfsConfig;
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::OpenFlags;

/// A file and a directory renamed beside their name-prefix siblings.
const PREFIX_SIBLINGS: &[Call] = &[
    Call::WriteFile("/a", 1, 9),
    Call::WriteFile("/ab", 2, 9),
    Call::WriteFile("/d/x", 3, 9),
    Call::WriteFile("/d/sub/y", 4, 9),
    Call::WriteFile("/dx", 5, 9),
    Call::Rename("/a", "/c"),
    Call::ReadFile("/c"),
    Call::Stat("/a"),
    Call::ReadFile("/ab"),
    Call::Stat("/cb"),
    Call::Rename("/d", "/e"),
    Call::ReadFile("/e/x"),
    Call::ReadFile("/e/sub/y"),
    Call::Stat("/d/x"),
    Call::ReadFile("/dx"),
    Call::Stat("/ex"),
];

/// A rename over a destination whose tuple the metadata cache holds.
const OVER_A_STATTED_DESTINATION: &[Call] = &[
    Call::WriteFile("/a", 1, 13),
    Call::WriteFile("/b", 2, 4),
    Call::Stat("/b"),
    Call::Stat("/a"),
    Call::Rename("/a", "/b"),
    Call::Stat("/b"),
    Call::ReadFile("/b"),
    Call::Stat("/a"),
];

/// Listings of a directory with a child named like it.
const A_CHILD_NAMED_LIKE_ITS_PARENT: &[Call] = &[
    Call::Mkdir("/a"),
    Call::Mkdir("/a/a"),
    Call::WriteFile("/a/a/x", 1, 5),
    Call::WriteFile("/a/ab", 2, 5),
    Call::WriteFile("/a/b", 3, 5),
    Call::WriteFile("/ab", 4, 5),
    Call::Readdir("/a"),
    Call::Readdir("/a/a"),
    Call::Readdir("/"),
];

/// A rename over a file this mount holds open, then a write through that
/// handle and an unlink of the name: POSIX orphans the clobbered file, so
/// its handle no longer answers for the name.
fn over_an_open_destination() -> [Call; 8] {
    [
        Call::WriteFile("/ab", 1, 9),
        Call::Open("/b", OpenFlags::create()),
        Call::Rename("/ab", "/b"),
        Call::Open("/shared", OpenFlags::create_truncate()),
        Call::Write(1, 391, 2, 75),
        Call::Unlink("/b"),
        Call::Pause,
        Call::Stat("/b"),
    ]
}

/// The same over a name under the destination that a moved name overwrites.
fn over_an_open_name_under_the_destination() -> [Call; 8] {
    [
        Call::WriteFile("/a/x", 1, 9),
        Call::Open("/b/x", OpenFlags::create()),
        Call::Rename("/a", "/b"),
        Call::Open("/shared", OpenFlags::create_truncate()),
        Call::Write(1, 391, 2, 75),
        Call::Unlink("/b/x"),
        Call::Pause,
        Call::Stat("/b/x"),
    ]
}

/// A rename of a path this mount just unlinked, with a name left under it.
fn from_a_just_unlinked_path() -> [Call; 7] {
    [
        Call::Open("/shared/ab", OpenFlags::create()),
        Call::Open("/shared", OpenFlags::create()),
        Call::Unlink("/shared"),
        Call::Rename("/shared", "/a/a/x"),
        Call::Stat("/a/a/x/ab"),
        Call::Stat("/shared/ab"),
        Call::Readdir("/a/a/x"),
    ]
}

fn assert_a_denied_rename_names_the_path_asked_for(under: Under) {
    let (env, mode) = under.deployment();
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

/// One test per plane, each checking `$script` through the model there.
macro_rules! on_every_plane {
    ($script:expr => $replicated:ident, $four_shards:ident, $non_sharing:ident) => {
        #[test]
        fn $replicated() {
            check(Under::Replicated.system(), &$script);
        }

        #[test]
        fn $four_shards() {
            check(Under::FourShards.system(), &$script);
        }

        #[test]
        fn $non_sharing() {
            check(Under::NonSharing.system(), &$script);
        }
    };
}

on_every_plane!(PREFIX_SIBLINGS =>
    rename_leaves_prefix_siblings_on_the_replicated_plane,
    rename_leaves_prefix_siblings_on_the_four_shard_plane,
    rename_leaves_prefix_siblings_in_non_sharing_mode);

on_every_plane!(OVER_A_STATTED_DESTINATION =>
    rename_over_a_statted_destination_is_visible_at_once_on_the_replicated_plane,
    rename_over_a_statted_destination_is_visible_at_once_on_the_four_shard_plane,
    rename_over_a_statted_destination_is_visible_at_once_in_non_sharing_mode);

on_every_plane!(A_CHILD_NAMED_LIKE_ITS_PARENT =>
    readdir_lists_a_child_named_like_its_parent_on_the_replicated_plane,
    readdir_lists_a_child_named_like_its_parent_on_the_four_shard_plane,
    readdir_lists_a_child_named_like_its_parent_in_non_sharing_mode);

on_every_plane!(from_a_just_unlinked_path() =>
    rename_moves_what_is_left_under_a_just_unlinked_path_on_the_replicated_plane,
    rename_moves_what_is_left_under_a_just_unlinked_path_on_the_four_shard_plane,
    rename_moves_what_is_left_under_a_just_unlinked_path_in_non_sharing_mode);

#[test]
fn rename_orphans_the_open_destination_it_clobbers() {
    for under in Under::ALL {
        check(under.system(), &over_an_open_destination());
        check(under.system(), &over_an_open_name_under_the_destination());
    }
}

#[test]
fn a_denied_rename_names_the_path_on_the_replicated_plane() {
    assert_a_denied_rename_names_the_path_asked_for(Under::Replicated);
}

#[test]
fn a_denied_rename_names_the_path_on_the_four_shard_plane() {
    assert_a_denied_rename_names_the_path_asked_for(Under::FourShards);
}

/// Open hole (ROADMAP items 13 and 14 rule on it): `readdir` checks no
/// read permission. Bob's listing of alice's non-empty `/a` answers `Ok([])`
/// rather than `PermissionDenied`, though his `stat` of `/a` is refused —
/// the coordination service's `list` leaves out the keys he may not read.
fn assert_readdir_of_an_unreadable_directory_answers_empty(under: Under) {
    let (env, mode) = under.deployment();
    let mut alice = env.mount("alice", ScfsConfig::test(mode), 1);
    alice.mkdir("/a").unwrap();
    alice.write_file("/a/f", b"alice's").unwrap();
    let mut bob = env.mount("bob", ScfsConfig::test(mode), 2);
    let denied = ScfsError::PermissionDenied { path: "/a".into() };
    assert_eq!(bob.stat("/a").map(|md| md.path), Err(denied));
    assert_eq!(bob.readdir("/a"), Ok(Vec::new()), "{under:?}");
    assert_eq!(alice.readdir("/a").unwrap(), ["/a/f"]);
}

#[test]
fn open_hole_readdir_of_an_unreadable_directory_answers_empty_on_the_replicated_plane() {
    assert_readdir_of_an_unreadable_directory_answers_empty(Under::Replicated);
}

#[test]
fn open_hole_readdir_of_an_unreadable_directory_answers_empty_on_the_four_shard_plane() {
    assert_readdir_of_an_unreadable_directory_answers_empty(Under::FourShards);
}
