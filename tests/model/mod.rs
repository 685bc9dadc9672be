//! The reference model every `FileSystem` is checked against, shared by the
//! test binaries that run scripts through it (`mod model;`): the random
//! scripts of `tests/spec.rs`, and the pinned regressions of
//! `tests/rename_paths.rs` and `tests/mkdir_parent.rs`.
//!
//! The paper drives every SCFS variant, S3FS, S3QL and a local FUSE file
//! system through the same POSIX calls (§4, Table 3). Its three modes differ
//! only in *when* `close` returns (§3.1), and a private name space must not
//! change any answer (§2.7). So one reference answers for all of them:
//! [`LocalFs`], the local file system of the evaluation. [`check`] runs a
//! script of [`Call`]s on a [`System`] and on a fresh reference, and
//! compares every answer: the `Ok`/`Err` variant (an error by its
//! [`std::mem::discriminant`]), the bytes a read returns, a size, a
//! `stat`'s type, the names a `readdir` lists and an ACL. `sync` is compared
//! as `Ok`/`Err` only: the durability level it reaches differs by design
//! (Table 1).
//!
//! Where a system answers otherwise, a row of [`DEVIATIONS`] says so and
//! cites the paper section, the baseline module doc or the `open_hole_*`
//! test that allows or pins it. A row names the systems, the calls (judged
//! on the reference before the call) and what they answer instead. An
//! answer a row states is exact and required, so a fix fails the spec until
//! its row goes; where it refuses a call, the reference does not run it.
//!
//! Outside the model: answers that need a second account or mount (the
//! `bob` cases of `tests/mkdir_parent.rs` and `tests/rename_paths.rs`),
//! timing windows, and costs.

#![allow(
    dead_code,
    reason = "each test binary scripts the calls and systems it needs"
)]

use std::collections::BTreeSet;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;

use scfs_repro::baselines::localfs::FsOverheads;
use scfs_repro::baselines::{LocalFs, S3fsLike, S3qlLike};
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::types::{Acl, Permission};
use scfs_repro::coord::sharded::ShardTopology;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::error::ScfsError;
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{
    is_under, parent_of, CdcParams, CutRule, FileHandle, FileType, OpenFlags,
};
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::workloads::setup::{Backend, Deployment, Plane, Providers};

/// One call of a script. A handle is named by a slot of [`Handles`].
/// Written bytes are named by [`bytes`]' arguments.
#[derive(Debug, Clone)]
pub enum Call {
    Open(&'static str, OpenFlags),
    Read(usize, u64, usize),
    Write(usize, u64, u8, usize),
    Truncate(usize, u64),
    HandleSize(usize),
    Fsync(usize),
    Sync(usize),
    Close(usize),
    WriteFile(&'static str, u8, usize),
    ReadFile(&'static str),
    CopyFile(&'static str, &'static str),
    Mkdir(&'static str),
    Readdir(&'static str),
    Rename(&'static str, &'static str),
    Unlink(&'static str),
    Setfacl(&'static str),
    Getfacl(&'static str),
    Stat(&'static str),
    /// A pause past the metadata cache's 500 ms expiry.
    Pause,
}

/// `len + 1` bytes from `start` up, seven apart: content-defined cuts find
/// boundaries in them.
fn bytes(start: u8, len: usize) -> Vec<u8> {
    (0..=len)
        .map(|i| start.wrapping_add((i as u8).wrapping_mul(7)))
        .collect()
}

/// What the spec compares of one call's result.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Done,
    Size(u64),
    Bytes(Vec<u8>),
    Stat(u64, FileType),
    Names(Vec<String>),
    Acl(Acl),
}

/// The handles a script's `open`s returned on one system.
#[derive(Default)]
struct Handles {
    open: Vec<FileHandle>,
    closed: Vec<FileHandle>,
}

impl Handles {
    /// The handle `slot` names: the `slot`-th latest open one; past those,
    /// the latest closed one, or one no system issued.
    fn get(&self, slot: usize) -> FileHandle {
        match self.open.len().checked_sub(slot + 1) {
            Some(i) => self.open[i],
            None => self.closed.last().copied().unwrap_or(FileHandle(1 << 40)),
        }
    }
}

/// Runs `call` on `fs`, whose handles are `handles`.
fn run(fs: &mut dyn FileSystem, handles: &mut Handles, call: &Call) -> Result<Answer, ScfsError> {
    let h = |slot: usize| handles.get(slot);
    let done = |r: Result<(), ScfsError>| r.map(|()| Answer::Done);
    match *call {
        Call::Open(path, flags) => fs.open(path, flags).map(|handle| {
            handles.open.push(handle);
            Answer::Done
        }),
        Call::Read(slot, offset, len) => fs.read(h(slot), offset, len).map(Answer::Bytes),
        Call::Write(slot, offset, start, len) => {
            let wrote = fs.write(h(slot), offset, &bytes(start, len));
            wrote.map(|n| Answer::Size(n as u64))
        }
        Call::Truncate(slot, size) => done(fs.truncate(h(slot), size)),
        Call::HandleSize(slot) => fs.handle_size(h(slot)).map(Answer::Size),
        Call::Fsync(slot) => done(fs.fsync(h(slot))),
        Call::Sync(slot) => fs.sync(h(slot)).map(|_| Answer::Done),
        Call::Close(slot) => {
            let handle = h(slot);
            fs.close(handle)?;
            handles.open.retain(|open| *open != handle);
            handles.closed.push(handle);
            Ok(Answer::Done)
        }
        Call::WriteFile(path, start, len) => done(fs.write_file(path, &bytes(start, len))),
        Call::ReadFile(path) => fs.read_file(path).map(Answer::Bytes),
        Call::CopyFile(from, to) => done(fs.copy_file(from, to)),
        Call::Mkdir(path) => done(fs.mkdir(path)),
        Call::Readdir(path) => fs.readdir(path).map(Answer::Names),
        Call::Rename(from, to) => done(fs.rename(from, to)),
        Call::Unlink(path) => done(fs.unlink(path)),
        Call::Setfacl(path) => done(fs.setfacl(path, &"bob".into(), Permission::Read)),
        Call::Getfacl(path) => fs.getfacl(path).map(Answer::Acl),
        Call::Stat(path) => fs.stat(path).map(|md| Answer::Stat(md.size, md.file_type)),
        Call::Pause => {
            fs.sleep(SimDuration::from_millis(600));
            Ok(Answer::Done)
        }
    }
}

/// An answer as the spec compares it: an error by its variant only.
fn loosely(answer: &Result<Answer, ScfsError>) -> Result<&Answer, Discriminant<ScfsError>> {
    answer.as_ref().map_err(discriminant)
}

/// The reference, and every name a script can have made in it: the paths
/// its calls named, and where a rename moved them.
struct Reference {
    fs: LocalFs,
    handles: Handles,
    names: BTreeSet<String>,
    /// The open handles a write or a truncate went through.
    dirty: BTreeSet<FileHandle>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            fs: LocalFs::with_overheads("LocalFS", "alice".into(), FsOverheads::zero(), 0),
            handles: Handles::default(),
            names: BTreeSet::new(),
            dirty: BTreeSet::new(),
        }
    }

    fn run(&mut self, call: &Call) -> Result<Answer, ScfsError> {
        match *call {
            Call::Rename(from, to) => {
                let moved = self.names.iter().filter(|n| is_under(n, from));
                let moved: Vec<String> =
                    moved.map(|n| format!("{to}{}", &n[from.len()..])).collect();
                self.names.extend(moved);
                self.names.extend([from.to_string(), to.to_string()]);
            }
            Call::Open(path, _) | Call::WriteFile(path, ..) | Call::Mkdir(path) => {
                self.names.insert(path.to_string());
            }
            Call::CopyFile(_, to) => {
                self.names.insert(to.to_string());
            }
            _ => {}
        }
        let answer = run(&mut self.fs, &mut self.handles, call);
        match *call {
            Call::Write(slot, ..) | Call::Truncate(slot, _) if answer.is_ok() => {
                self.dirty.insert(self.handles.get(slot));
            }
            _ => self.dirty.retain(|h| self.handles.open.contains(h)),
        }
        answer
    }

    /// Truncates the handle the last call opened, which makes it dirty.
    fn truncate_opened(&mut self) {
        let opened = self.handles.get(0);
        if self.fs.truncate(opened, 0).is_ok() {
            self.dirty.insert(opened);
        }
    }

    /// Closes the handle `slot` names, which commits it, and puts a clean
    /// handle of its path, open for writing, in its place.
    fn commit(&mut self, slot: usize) {
        let handle = self.handles.get(slot);
        let Some(path) = self.fs.handle_path(handle) else {
            return;
        };
        self.fs.close(handle).ok();
        self.dirty.remove(&handle);
        let Ok(reopened) = self.fs.open(&path, OpenFlags::read_write()) else {
            return;
        };
        for open in &mut self.handles.open {
            if *open == handle {
                *open = reopened;
            }
        }
    }

    /// What the reference holds at `path`. The root is a directory.
    fn kind(&mut self, path: &str) -> Option<FileType> {
        if path == "/" {
            return Some(FileType::Directory);
        }
        self.fs.stat(path).ok().map(|md| md.file_type)
    }

    /// How many handles open on the reference can write `path`.
    fn writers(&self, path: &str) -> usize {
        let open = self
            .handles
            .open
            .iter()
            .filter(|h| self.fs.handle_writable(**h));
        open.filter(|h| self.fs.handle_path(**h).as_deref() == Some(path))
            .count()
    }

    /// Whether the reference holds `path` or anything under it.
    fn holds_under(&self, path: &str) -> bool {
        let mut names = self.names.iter();
        names.any(|n| is_under(n, path) && self.fs.exists(n))
    }
}

/// One system under the spec.
#[derive(Debug, Clone, Copy)]
pub enum System {
    /// An SCFS mount: mode, private name space, backend, content-defined
    /// cuts, 4-shard plane.
    Scfs(Mode, bool, Backend, bool, bool),
    S3fs,
    S3ql,
}

impl System {
    /// A fresh mount of `alice` on a fresh instantaneous deployment. SCFS
    /// cuts 64-byte chunks, so a script's files span several.
    fn mount(self) -> Box<dyn FileSystem> {
        let cloud = || Arc::new(SimulatedCloud::test("s3"));
        let System::Scfs(mode, pns, backend, cdc, sharded) = self else {
            return match self {
                System::S3fs => Box::new(S3fsLike::new("alice".into(), cloud(), 1)),
                _ => Box::new(S3qlLike::new("alice".into(), cloud(), 1)),
            };
        };
        let plane = match sharded {
            true => Plane::Sharded(ShardTopology::test(4)),
            false => Plane::Instantaneous,
        };
        let mut config = ScfsConfig::test(mode);
        config.private_name_spaces = pns;
        config.chunking = match cdc {
            true => CutRule::Cdc(CdcParams::with_avg(64)),
            false => CutRule::Fixed(64),
        };
        let spec = Deployment::on(backend).providers(Providers::Instantaneous);
        Box::new(spec.plane(plane).build(7).mount("alice", config, 1))
    }
}

/// The three mounts the path regressions run on: the replicated
/// coordination service, a 4-shard ABD plane, and a `NonSharing` mount (the
/// private name space: a coordination node of one).
#[derive(Debug, Clone, Copy)]
pub enum Under {
    Replicated,
    FourShards,
    NonSharing,
}

impl Under {
    pub const ALL: [Under; 3] = [Under::Replicated, Under::FourShards, Under::NonSharing];

    /// The mount, as a [`System`] of the model.
    pub fn system(self) -> System {
        let (_, mode) = self.plane();
        System::Scfs(
            mode,
            false,
            Backend::Aws,
            false,
            matches!(self, Under::FourShards),
        )
    }

    /// A fresh instantaneous deployment, and the mode its mounts run in.
    pub fn deployment(self) -> (Deployment, Mode) {
        let (plane, mode) = self.plane();
        let spec = Deployment::on(Backend::Aws).providers(Providers::Instantaneous);
        (spec.plane(plane).build(3), mode)
    }

    fn plane(self) -> (Plane, Mode) {
        match self {
            Under::Replicated => (Plane::Instantaneous, Mode::Blocking),
            Under::FourShards => (Plane::Sharded(ShardTopology::test(4)), Mode::Blocking),
            Under::NonSharing => (Plane::Instantaneous, Mode::NonSharing),
        }
    }
}

/// What a row of [`DEVIATIONS`] rules for a call.
enum Instead {
    /// This answer, exactly. An error refuses the call, and the reference
    /// does not run it; an `Ok` is the reference's own answer, where POSIX
    /// gives another.
    Answer(Result<Answer, ScfsError>),
    /// An answer of the reference's variant, `Ok` or `Err`, whatever it
    /// holds.
    SameVariant,
    /// The call sets the system's state apart from the reference's: the
    /// spec stops checking the system for the rest of the script.
    Diverges,
    /// The reference's answer; then the reference truncates the handle the
    /// call opened, to be dirty and empty as the system's is.
    TruncatesAtOpen,
    /// The reference's answer; then the reference commits the handle the
    /// call names, as the system's `sync` did ([`Reference::commit`]).
    Commits,
}

/// A row's refusal.
fn refuses(e: ScfsError) -> Option<Instead> {
    Some(Instead::Answer(Err(e)))
}

/// One row of [`DEVIATIONS`].
struct Deviation {
    /// The systems it holds for.
    on: fn(&System) -> bool,
    /// What it rules for a call it covers, judged before the call.
    rules: fn(&Call, &mut Reference) -> Option<Instead>,
    /// The paper section, baseline module doc or `open_hole_*` test that
    /// allows or pins it.
    cite: &'static str,
}

/// Whether `system` is an SCFS mount.
fn scfs(system: &System) -> bool {
    matches!(system, System::Scfs(..))
}

/// Where a system answers other than the reference. The first row that
/// covers a call rules it.
const DEVIATIONS: &[Deviation] = &[
    Deviation {
        on: scfs,
        rules: |call, reference| {
            let Call::Mkdir(path) = call else { return None };
            let parent = parent_of(path);
            match reference.kind(&parent) {
                Some(FileType::Directory) => None,
                Some(FileType::File) => refuses(ScfsError::WrongType {
                    path: parent,
                    expected: "directory",
                }),
                None => refuses(ScfsError::not_found(parent)),
            }
        },
        cite: "baselines::localfs module doc: the reference's mkdir checks no parent; \
               SCFS's answers the parent's error (POSIX: ENOENT, ENOTDIR)",
    },
    Deviation {
        on: scfs,
        rules: |call, reference| match call {
            Call::Unlink(path) if reference.kind(path) == Some(FileType::Directory) => {
                refuses(ScfsError::WrongType {
                    path: path.to_string(),
                    expected: "file",
                })
            }
            _ => None,
        },
        cite: "baselines::localfs module doc: the reference's unlink removes a directory's \
               name as it does a file's; SCFS's unlinks files only (POSIX: EISDIR)",
    },
    Deviation {
        on: scfs,
        rules: |call, reference| {
            let Call::Truncate(slot, _) = *call else {
                return None;
            };
            let (fs, h) = (&reference.fs, reference.handles.get(slot));
            let path = fs.handle_path(h).filter(|_| !fs.handle_writable(h))?;
            refuses(ScfsError::PermissionDenied { path })
        },
        cite: "baselines::localfs module doc: the reference truncates through a read-only \
               handle; SCFS refuses it, as it refuses a write",
    },
    Deviation {
        on: scfs,
        rules: |call, reference| {
            let Call::Sync(slot) = *call else { return None };
            let (fs, h) = (&reference.fs, reference.handles.get(slot));
            let commits = |h| reference.dirty.contains(&h) && !fs.handle_detached(h);
            let path = fs.handle_path(h).filter(|_| commits(h))?;
            fs.exists(&path).then_some(Instead::Commits)
        },
        cite: "paper Table 1 (scfs::durability): SCFS's sync takes a dirty handle to the \
               cloud, a version a reopen reads, and the handle stays open clean; \
               baselines::localfs module doc: the reference's stops at the local disk. \
               A handle whose file was unlinked commits nothing on either",
    },
    Deviation {
        on: scfs,
        rules: |call, reference| match *call {
            Call::Open(path, OpenFlags { truncate: true, .. }) => {
                let versioned = reference.fs.stat(path).is_ok_and(|md| md.version_count > 0);
                versioned.then_some(Instead::TruncatesAtOpen)
            }
            Call::CopyFile(from, to) => {
                let empty = reference.fs.raw_contents(from) == Some(&[]);
                let truncates = reference.fs.raw_contents(to).is_some_and(|b| !b.is_empty());
                (empty && truncates).then_some(Instead::Diverges)
            }
            _ => None,
        },
        cite: "baselines::localfs module doc: the reference truncates at a truncating \
               handle's first write, so one closed unwritten (a copy of an empty file's too) \
               leaves the file whole; SCFS's handle of a file with a version is dirty and \
               empty from the open on",
    },
    Deviation {
        on: scfs,
        rules: |call, reference| match call {
            Call::Rename(from, to)
                if from != to && is_under(to, from) && reference.holds_under(from) =>
            {
                Some(Instead::Diverges)
            }
            _ => None,
        },
        cite: "baselines::localfs module doc: a rename into its own subtree (POSIX: EINVAL) \
               moves the reference's names one by one, over each other; SCFS's stores move \
               the subtree at once",
    },
    Deviation {
        on: |system| matches!(system, System::Scfs(mode, true, ..) if *mode != Mode::NonSharing),
        rules: |call, reference| match call {
            Call::Rename(from, to)
                if is_under(from, "/shared") != is_under(to, "/shared")
                    && reference.holds_under(from) =>
            {
                Some(Instead::Diverges)
            }
            _ => None,
        },
        cite: "tests/end_to_end.rs::\
               open_hole_a_rename_across_the_shared_tree_hides_it_from_a_private_name_space",
    },
    Deviation {
        on: |_| true,
        rules: |call, reference| {
            let (from, path) = match *call {
                Call::Open(path, flags) if flags.create => (None, path),
                Call::WriteFile(path, ..) => (None, path),
                Call::CopyFile(from, path) => (Some(from), path),
                _ => return None,
            };
            let orphan = reference.kind(path).is_none()
                && reference.kind(&parent_of(path)) != Some(FileType::Directory)
                && from.is_none_or(|from| reference.kind(from) == Some(FileType::File));
            orphan.then_some(Instead::Answer(Ok(Answer::Done)))
        },
        cite: "tests/mkdir_parent.rs::open_hole_a_file_create_does_not_check_its_parent",
    },
    Deviation {
        on: |_| true,
        rules: |call, reference| match call {
            Call::Readdir(path) if reference.kind(path) != Some(FileType::Directory) => Some(
                Instead::Answer(reference.fs.readdir(path).map(Answer::Names)),
            ),
            _ => None,
        },
        cite: "baselines::localfs module doc: readdir of a missing path or of a regular file \
               lists what lies under the name, Ok([]) for nothing (POSIX: ENOENT, ENOTDIR)",
    },
    Deviation {
        on: |_| true,
        rules: |call, reference| match call {
            Call::Stat(path) if reference.writers(path) > 1 => Some(Instead::SameVariant),
            _ => None,
        },
        cite: "baselines::localfs module doc: a stat of a file two handles have written \
               reports one of their sizes, which one unspecified",
    },
    Deviation {
        on: |system| matches!(system, System::S3fs),
        rules: |call, reference| match *call {
            Call::Open(path, flags) if !flags.create => {
                (reference.kind(path) == Some(FileType::Directory)).then_some(Instead::SameVariant)
            }
            Call::ReadFile(path) | Call::CopyFile(path, _) => {
                (reference.kind(path) == Some(FileType::Directory)).then_some(Instead::SameVariant)
            }
            Call::Open(path, _) | Call::WriteFile(path, ..) => {
                (reference.kind(path) == Some(FileType::Directory)).then_some(Instead::Diverges)
            }
            Call::Close(slot) | Call::Fsync(slot) | Call::Sync(slot) => {
                let (fs, h) = (&reference.fs, reference.handles.get(slot));
                let gone = fs.handle_path(h).is_some_and(|p| !fs.exists(&p));
                (gone && fs.handle_writable(h)).then_some(Instead::Diverges)
            }
            Call::Rename(from, to) => {
                let under = reference
                    .names
                    .iter()
                    .any(|n| n != from && is_under(n, from));
                let apart = under || from == to;
                (apart && reference.holds_under(from)).then_some(Instead::Diverges)
            }
            _ => None,
        },
        cite: "baselines::s3fs module doc: an open asks S3 first, so opening a directory is \
               NotFound; a create PUTs before the local create can refuse, a flush PUTs the \
               path of a handle whose file is gone, and a rename copies one object (onto \
               itself, deletes it), so S3 and the local tree part",
    },
    Deviation {
        on: |system| matches!(system, System::S3ql),
        rules: |call, _| match call {
            Call::Setfacl(_) => refuses(ScfsError::invalid("S3QL does not support file sharing")),
            _ => None,
        },
        cite: "baselines::s3ql module doc: S3QL supports no sharing",
    },
];

/// Runs `script` on `system` and on a fresh reference, comparing every
/// answer.
pub fn check(system: System, script: &[Call]) {
    let (mut fs, mut reference) = (system.mount(), Reference::new());
    let mut handles = Handles::default();
    for (step, call) in script.iter().enumerate() {
        let context = || {
            let calls = script[..=step].iter().enumerate();
            let calls = calls.map(|(i, call)| format!("\n  #{i} {call:?}"));
            format!("{system:?}, call {step} of:{}", calls.collect::<String>())
        };
        let ruled = DEVIATIONS
            .iter()
            .enumerate()
            .filter(|(_, row)| (row.on)(&system))
            .find_map(|(i, row)| Some((i, (row.rules)(call, &mut reference)?)));
        let got = match ruled {
            Some((_, Instead::Diverges)) => return,
            _ => run(fs.as_mut(), &mut handles, call),
        };
        if let Some((row, Instead::Answer(Err(refused)))) = ruled {
            let cite = DEVIATIONS[row].cite;
            assert_eq!(got, Err(refused), "row {row} ({cite}): {}", context());
            continue;
        }
        let expected = reference.run(call);
        match (&ruled, call, &expected) {
            (Some((_, Instead::TruncatesAtOpen)), _, Ok(_)) => reference.truncate_opened(),
            (Some((_, Instead::Commits)), Call::Sync(slot), Ok(_)) => reference.commit(*slot),
            _ => {}
        }
        let alike = match (ruled, call) {
            (Some((row, Instead::Answer(answer))), _) => {
                assert_eq!(expected, answer, "row {row} misstates the reference");
                loosely(&got) == loosely(&expected)
            }
            (Some((_, Instead::SameVariant)), _) | (_, Call::Sync(_)) => {
                got.is_ok() == expected.is_ok()
            }
            _ => loosely(&got) == loosely(&expected),
        };
        assert!(alike, "{got:?} against {expected:?}: {}", context());
    }
}
