//! One sequential specification for every `FileSystem`: random scripts of
//! calls answer on every system as on the reference, but for the cited
//! rows of the deviation table (`tests/model/mod.rs`).

mod model;

use model::{check, Call, System};
use proptest::prelude::*;
use scfs_repro::scfs::config::Mode;
use scfs_repro::scfs::types::{OpenFlags, MAX_FILE_LEN};
use scfs_repro::workloads::setup::Backend;

/// The paths a script names: nesting, a child named like its parent
/// (`/a/a`), a name-prefix sibling (`/ab` of `/a`), and the `/shared` tree
/// that a private name space still coordinates.
const PATHS: [&str; 9] = [
    "/a",
    "/a/a",
    "/a/x",
    "/a/a/x",
    "/ab",
    "/b",
    "/shared",
    "/shared/a",
    "/shared/ab",
];

/// Decodes one random word into a call. Offsets and sizes stay under 400
/// bytes, but for one in 32, which lies past the maximum file size (no
/// system may allocate for it).
fn decode(word: u64) -> Call {
    let path = PATHS[(word >> 8) as usize % PATHS.len()];
    let other = PATHS[(word >> 12) as usize % PATHS.len()];
    let slot = [0, 0, 0, 0, 1, 1, 2, 7][(word >> 16) as usize % 8];
    let offset = match (word >> 19) % 32 {
        0 => [MAX_FILE_LEN + 1, u64::MAX - 1][(word >> 24) as usize % 2],
        _ => (word >> 24) % 400,
    };
    let (start, len) = ((word >> 33) as u8, (word >> 41) as usize % 300);
    let flags = [
        OpenFlags::read_only(),
        OpenFlags::read_write(),
        OpenFlags::create(),
        OpenFlags::create_truncate(),
    ];
    match word % 25 {
        0..=3 => Call::Open(path, flags[word as usize % 25]),
        4 | 5 => Call::Read(slot, offset, len),
        6 | 7 => Call::Write(slot, offset, start, len),
        8 => Call::Truncate(slot, offset),
        9 => Call::HandleSize(slot),
        10 => Call::Fsync(slot),
        11 => Call::Sync(slot),
        12 => Call::Close(slot),
        13..=15 => Call::WriteFile(path, start, len),
        16 => Call::ReadFile(path),
        17 => Call::CopyFile(path, other),
        18 => Call::Mkdir(path),
        19 if word >> 46 & 1 == 0 => Call::Readdir("/"),
        19 => Call::Readdir(path),
        20 => Call::Rename(path, other),
        21 => Call::Unlink(path),
        22 => Call::Setfacl(path),
        23 => Call::Getfacl(path),
        _ => Call::Stat(path),
    }
}

/// Every value of every factor of an SCFS mount at least once — {B, NB,
/// NS}, PNS {off, on}, {AWS, CoC}, {Fixed, CDC}, {replicated, 4-shard} —
/// and the two cloud-backed baselines.
const SYSTEMS: [System; 7] = [
    System::Scfs(Mode::Blocking, false, Backend::Aws, false, false),
    System::Scfs(Mode::NonBlocking, true, Backend::CloudOfClouds, true, true),
    System::Scfs(Mode::NonSharing, false, Backend::Aws, true, false),
    System::Scfs(Mode::Blocking, true, Backend::CloudOfClouds, false, true),
    System::Scfs(Mode::NonBlocking, false, Backend::Aws, false, false),
    System::S3fs,
    System::S3ql,
];

proptest! {
    /// Every system answers random scripts as the reference does, but for
    /// the rows of the deviation table. Half the calls are followed by a
    /// pause past the metadata cache's expiry; the others by none, so a
    /// non-blocking commit may still be in flight.
    #[test]
    fn every_system_answers_every_call_as_the_reference_does(
        words in collection::vec(any::<u64>(), 1..80)
    ) {
        let pause = |w: u64| (w & 1 << 62 != 0).then_some(Call::Pause);
        let script: Vec<Call> = words.iter().flat_map(|&w| [Some(decode(w)), pause(w)]).flatten().collect();
        for system in SYSTEMS {
            check(system, &script);
        }
    }
}
