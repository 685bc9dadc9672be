//! The file-synchronization benchmark of Figures 7 and 8 (paper §4.3).
//!
//! The benchmark replays the file-system calls an OpenOffice-style desktop
//! application issues when a user opens, saves and closes a document stored
//! in the cloud-backed file system: the document `f` plus two transient lock
//! files `lf1`/`lf2`. The `(L)` variants keep the lock files on the local
//! file system (`/tmp`) instead, which the paper shows makes the blocking
//! variants dramatically more responsive.

use scfs::config::Mode;
use scfs::durability::DurabilityLevel;
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::OpenFlags;
use sim_core::units::Bytes;

use crate::results::{fmt_secs, Table};
use crate::setup::{build_system, Backend, SystemKind};

/// Latency of the three benchmark actions, in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSyncResult {
    /// Latency of the *open document* action.
    pub open_s: f64,
    /// Latency of the *save document* action.
    pub save_s: f64,
    /// Latency of the *close document* action.
    pub close_s: f64,
}

/// Where the application keeps its lock files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockFilePlacement {
    /// Lock files live in the cloud-backed file system (the default
    /// behaviour of the office application).
    InFileSystem,
    /// Lock files live in the local file system (`/tmp`): the `(L)` variants.
    Local,
}

/// Runs the open/save/close action sequence once and returns the per-action
/// latencies. `doc_size` is the document size (1.2 MB in the paper, the
/// projected 2013 average).
pub fn run_file_sync(
    fs: &mut dyn FileSystem,
    doc_size: Bytes,
    locks: LockFilePlacement,
    seed: u64,
) -> Result<FileSyncResult, ScfsError> {
    let mut rng = sim_core::rng::DetRng::new(seed);
    let doc = format!("/docs/report-{seed}.odt");
    let lf1 = format!("/docs/.~lock1-{seed}");
    let lf2 = format!("/docs/.~lock2-{seed}");
    let contents = rng.bytes(doc_size.get() as usize);
    // The document already exists before the user opens it (not timed).
    fs.write_file(&doc, &contents)?;

    let use_fs_locks = locks == LockFilePlacement::InFileSystem;
    let lock_marker = b"lock".to_vec();

    // --- Open action (Figure 7). ---
    let start = fs.now();
    let fd = fs.open(&doc, OpenFlags::read_write())?; // 1 open(f, rw)
    fs.read(fd, 0, doc_size.get() as usize)?; // 2 read(f)
    if use_fs_locks {
        fs.write_file(&lf1, &lock_marker)?; // 3-5 open-write-close(lf1)
    }
    let _ = fs.read_file(&doc)?; // 6-8 open-read-close(f)
    if use_fs_locks {
        let _ = fs.read_file(&lf1)?; // 9-11 open-read-close(lf1)
    }
    let open_s = fs.now().duration_since(start).as_secs_f64();

    // --- Save action. ---
    let start = fs.now();
    let _ = fs.read_file(&doc)?; // 1-3 open-read-close(f)
    fs.close(fd)?; // 4 close(f)
    if use_fs_locks {
        let _ = fs.read_file(&lf1)?; // 5-7 open-read-close(lf1)
        fs.unlink(&lf1)?; // 8 delete(lf1)
        fs.write_file(&lf2, &lock_marker)?; // 9-11 open-write-close(lf2)
        let _ = fs.read_file(&lf2)?; // 12-14 open-read-close(lf2)
    }
    let fd2 = fs.open(&doc, OpenFlags::read_write())?;
    fs.truncate(fd2, 0)?; // 15 truncate(f, 0)
    fs.write(fd2, 0, &contents)?; // 16-18 open-write-close(f)
    fs.close(fd2)?;
    let fd3 = fs.open(&doc, OpenFlags::read_write())?; // 19-21 open-fsync-close(f)
    fs.fsync(fd3)?;
    fs.close(fd3)?;
    let _ = fs.read_file(&doc)?; // 22-24 open-read-close(f)
    let fd4 = fs.open(&doc, OpenFlags::read_write())?; // 25 open(f, rw)
    let save_s = fs.now().duration_since(start).as_secs_f64();

    // --- Close action. ---
    let start = fs.now();
    fs.close(fd4)?; // 1 close(f)
    if use_fs_locks {
        let _ = fs.read_file(&lf2)?; // 2-4 open-read-close(lf2)
        fs.unlink(&lf2)?; // 5 delete(lf2)
    }
    let close_s = fs.now().duration_since(start).as_secs_f64();

    Ok(FileSyncResult {
        open_s,
        save_s,
        close_s,
    })
}

/// Latency of a *durable save*: write + close + `sync` to the system's
/// highest durability level (Table 1), and the level reached. In blocking
/// mode the close already waits for the cloud; in the non-blocking and
/// non-sharing modes `sync` waits only on the document's own completion
/// token — the explicit promotion the async storage API surfaces. Systems
/// without a cloud tier stop at the local disk.
pub fn durable_save(
    fs: &mut dyn FileSystem,
    doc_size: Bytes,
    seed: u64,
) -> Result<(f64, DurabilityLevel), ScfsError> {
    let mut rng = sim_core::rng::DetRng::new(seed);
    let doc = format!("/docs/durable-{seed}.odt");
    let contents = rng.bytes(doc_size.get() as usize);
    let start = fs.now();
    fs.write_file(&doc, &contents)?;
    let h = fs.open(&doc, OpenFlags::read_only())?;
    let level = fs.sync(h)?;
    fs.close(h)?;
    Ok((fs.now().duration_since(start).as_secs_f64(), level))
}

/// Runs Figure 8 for the given systems (each with and without local lock
/// files) and returns the result table.
pub fn figure8(systems: &[SystemKind], doc_size: Bytes, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 8: file synchronization benchmark latency (virtual seconds, 1.2 MB file)",
        vec![
            "system".into(),
            "open".into(),
            "save".into(),
            "close".into(),
            "total".into(),
        ],
    );
    for &kind in systems {
        for (placement, suffix) in [
            (LockFilePlacement::InFileSystem, ""),
            (LockFilePlacement::Local, " (L)"),
        ] {
            let mut fs = build_system(kind, seed);
            let r = run_file_sync(fs.as_mut(), doc_size, placement, seed)
                .expect("file synchronization benchmark");
            table.push_row(vec![
                format!("{}{}", kind.label(), suffix),
                fmt_secs(r.open_s),
                fmt_secs(r.save_s),
                fmt_secs(r.close_s),
                fmt_secs(r.open_s + r.save_s + r.close_s),
            ]);
        }
    }
    table
}

/// The systems of Figure 8(a): non-blocking variants, SCFS-CoC-NS and S3QL.
pub fn figure8a_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Scfs(Backend::Aws, Mode::NonBlocking),
        SystemKind::Scfs(Backend::CloudOfClouds, Mode::NonBlocking),
        SystemKind::Scfs(Backend::CloudOfClouds, Mode::NonSharing),
        SystemKind::S3ql,
    ]
}

/// The systems of Figure 8(b): blocking variants and S3FS.
pub fn figure8b_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Scfs(Backend::Aws, Mode::Blocking),
        SystemKind::Scfs(Backend::CloudOfClouds, Mode::Blocking),
        SystemKind::S3fs,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_scfs_is_dominated_by_lock_files() {
        let size = Bytes::kib(256);
        let mut fs = build_system(SystemKind::Scfs(Backend::Aws, Mode::Blocking), 3);
        let with_locks =
            run_file_sync(fs.as_mut(), size, LockFilePlacement::InFileSystem, 3).unwrap();
        let mut fs = build_system(SystemKind::Scfs(Backend::Aws, Mode::Blocking), 3);
        let local_locks = run_file_sync(fs.as_mut(), size, LockFilePlacement::Local, 3).unwrap();
        let total_fs = with_locks.open_s + with_locks.save_s + with_locks.close_s;
        let total_local = local_locks.open_s + local_locks.save_s + local_locks.close_s;
        assert!(
            total_fs > total_local * 1.5,
            "lock files in the FS ({total_fs:.2}s) should be much slower than local lock files ({total_local:.2}s)"
        );
    }

    #[test]
    fn durable_save_promotes_non_blocking_mode_to_cloud_level() {
        let size = Bytes::kib(256);
        // A plain non-blocking save returns at local-disk durability and is
        // fast; the durable save waits for the document's own upload token
        // and reaches the cloud level — costing real upload time.
        let mut nb = build_system(SystemKind::Scfs(Backend::Aws, Mode::NonBlocking), 7);
        let plain_start = nb.now();
        nb.write_file("/docs/plain.odt", &vec![7u8; size.get() as usize])
            .unwrap();
        let plain_s = nb.now().duration_since(plain_start).as_secs_f64();
        let (durable_s, level) = durable_save(nb.as_mut(), size, 7).unwrap();
        assert_eq!(level, DurabilityLevel::SingleCloud);
        assert!(
            durable_s > plain_s * 1.5,
            "durable save ({durable_s:.3}s) must pay the upload a plain NB \
             save ({plain_s:.3}s) defers"
        );
        // A purely local system stops at the local disk.
        let mut local = build_system(SystemKind::LocalFs, 7);
        let (_, level) = durable_save(local.as_mut(), size, 7).unwrap();
        assert_eq!(level, DurabilityLevel::LocalDisk);
    }

    #[test]
    fn non_sharing_variant_behaves_like_a_local_file_system() {
        let size = Bytes::kib(256);
        let mut ns = build_system(
            SystemKind::Scfs(Backend::CloudOfClouds, Mode::NonSharing),
            4,
        );
        let ns_r = run_file_sync(ns.as_mut(), size, LockFilePlacement::InFileSystem, 4).unwrap();
        let mut blocking =
            build_system(SystemKind::Scfs(Backend::CloudOfClouds, Mode::Blocking), 4);
        let b_r =
            run_file_sync(blocking.as_mut(), size, LockFilePlacement::InFileSystem, 4).unwrap();
        assert!(ns_r.save_s < 1.0, "NS save took {}", ns_r.save_s);
        assert!(b_r.save_s > ns_r.save_s * 3.0);
    }
}
