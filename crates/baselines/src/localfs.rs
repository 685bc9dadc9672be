//! LocalFS: the FUSE-J local file system used as the evaluation baseline.
//!
//! A native kernel file system would be unfairly fast compared with any
//! FUSE-J user-level file system, so the paper implements a Java/FUSE-J
//! *local* file system and uses it as the baseline (§4.1). This module
//! reproduces it: all data and metadata are kept locally, and every call
//! pays the user-level dispatch overhead plus memory/disk latencies.
//!
//! The same structure is reused (by composition) by the S3FS-like and
//! S3QL-like baselines, which add their cloud behaviour on top.
//!
//! It is also the reference of the sequential specification
//! (`tests/spec.rs`), whose deviation table cites where it answers more
//! loosely than POSIX, or than SCFS:
//!
//! * its name space is a flat map of paths: `mkdir` and a create check no
//!   parent, `unlink` removes a directory's name as it does a file's, and
//!   `readdir` of a missing path or of a regular file lists the paths
//!   directly under the name (`Ok([])` for none);
//! * a rename into its own subtree moves the names one by one, over each
//!   other;
//! * a truncating open truncates at the handle's first write or truncate,
//!   so one closed unwritten leaves the file whole, and `truncate` goes
//!   through a read-only handle;
//! * a `stat` of a file that two handles have written reports one of their
//!   sizes, which one unspecified;
//! * `sync` stops at the local disk: only `close` makes a handle's bytes
//!   the file's.

use std::collections::BTreeMap;

use cloud_store::types::{AccountId, Acl, Permission};
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::{
    is_child_of, is_under, normalize_path, truncate_len, write_end, FileHandle, FileMetadata,
    FileType, OpenFlags,
};
use sim_core::latency::{LatencyModel, LatencyProfile};
use sim_core::rng::DetRng;
use sim_core::time::{Clock, SimDuration};
use sim_core::units::Bytes;

/// Per-call overheads of a user-level (FUSE-J) file system.
#[derive(Debug, Clone, PartialEq)]
pub struct FsOverheads {
    /// Dispatch overhead of metadata-path calls (open/close/stat/...).
    pub syscall: LatencyModel,
    /// Dispatch overhead of `read` calls.
    pub read: LatencyModel,
    /// Dispatch overhead of `write` calls.
    pub write: LatencyModel,
}

impl FsOverheads {
    /// Overheads calibrated so the Filebench micro-benchmarks have the same
    /// shape as the paper's Table 3 (reads cheaper than writes).
    pub fn fuse_j() -> Self {
        FsOverheads {
            syscall: LatencyModel::uniform_ms(0.12, 0.16),
            read: LatencyModel::uniform_ms(0.038, 0.048),
            write: LatencyModel::uniform_ms(0.125, 0.148),
        }
    }

    /// Zero overheads, for functional unit tests.
    pub fn zero() -> Self {
        FsOverheads {
            syscall: LatencyModel::zero(),
            read: LatencyModel::zero(),
            write: LatencyModel::zero(),
        }
    }
}

#[derive(Debug, Clone)]
struct LocalOpenFile {
    path: String,
    flags: OpenFlags,
    buffer: Vec<u8>,
    dirty: bool,
    /// Its file's name was unlinked: the handle still reads and writes its
    /// own bytes, but answers no `stat` and commits nothing on `close`, so
    /// a file created again under that name never sees them.
    detached: bool,
}

/// A purely local user-level file system.
#[derive(Debug)]
pub struct LocalFs {
    name: String,
    user: AccountId,
    clock: Clock,
    rng: DetRng,
    overheads: FsOverheads,
    disk: LatencyProfile,
    files: BTreeMap<String, (FileMetadata, Vec<u8>)>,
    open: BTreeMap<FileHandle, LocalOpenFile>,
    next_handle: u64,
}

impl LocalFs {
    /// Creates a LocalFS with the calibrated FUSE-J overheads.
    pub fn new(user: AccountId, seed: u64) -> Self {
        LocalFs::with_overheads("LocalFS", user, FsOverheads::fuse_j(), seed)
    }

    /// Creates a local file system with explicit overheads (used by the
    /// cloud-backed baselines that embed it).
    pub fn with_overheads(name: &str, user: AccountId, overheads: FsOverheads, seed: u64) -> Self {
        LocalFs {
            name: name.to_string(),
            user,
            clock: Clock::new(),
            rng: DetRng::new(seed),
            overheads,
            disk: LatencyProfile::local_disk(),
            files: BTreeMap::new(),
            open: BTreeMap::new(),
            next_handle: 1,
        }
    }

    /// Mutable access to the clock (the embedding baselines charge their
    /// cloud accesses against the same timeline).
    pub fn clock_mut(&mut self) -> &mut Clock {
        &mut self.clock
    }

    /// The owner of this mount.
    pub fn user(&self) -> &AccountId {
        &self.user
    }

    /// Whether a path currently exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Direct access to a file's stored contents (used by the embedding
    /// baselines when uploading whole files to their cloud).
    pub fn raw_contents(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|(_, d)| d.as_slice())
    }

    /// Returns the path behind an open handle (for the embedding baselines).
    pub fn handle_path(&self, handle: FileHandle) -> Option<String> {
        self.open.get(&handle).map(|f| f.path.clone())
    }

    /// Returns the current contents behind an open handle — including
    /// not-yet-closed writes (for the embedding baselines' `sync`).
    pub fn handle_contents(&self, handle: FileHandle) -> Option<&[u8]> {
        self.open.get(&handle).map(|f| f.buffer.as_slice())
    }

    /// Whether the open handle's file was unlinked since it was opened: its
    /// bytes are its own, and its `close` commits nothing.
    pub fn handle_detached(&self, handle: FileHandle) -> bool {
        self.open.get(&handle).is_some_and(|f| f.detached)
    }

    /// Whether the open handle was opened with write access.
    pub fn handle_writable(&self, handle: FileHandle) -> bool {
        self.open
            .get(&handle)
            .map(|f| f.flags.write)
            .unwrap_or(false)
    }

    fn charge(&mut self, model: &LatencyModel) {
        let d = model.sample(&mut self.rng);
        self.clock.advance(d);
    }

    fn charge_syscall(&mut self) {
        let m = self.overheads.syscall.clone();
        self.charge(&m);
    }

    /// Charges a local-disk flush of `bytes` (used by fsync and by the
    /// baselines on close).
    pub fn charge_disk_write(&mut self, bytes: usize) {
        let d = self
            .disk
            .sample_op(&mut self.rng, Bytes::new(bytes as u64), Bytes::ZERO);
        self.clock.advance(d);
    }
}

impl FileSystem for LocalFs {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn sleep(&mut self, duration: SimDuration) {
        self.clock.advance(duration);
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<FileHandle, ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        let buffer = match self.files.get(&path) {
            Some((md, data)) => {
                if md.file_type != FileType::File {
                    return Err(ScfsError::WrongType {
                        path,
                        expected: "file",
                    });
                }
                if flags.truncate {
                    Vec::new()
                } else {
                    data.clone()
                }
            }
            None => {
                if !flags.create {
                    return Err(ScfsError::not_found(path));
                }
                let now = self.clock.now();
                let md = FileMetadata::new_file(&path, self.user.clone(), path.clone(), now);
                self.files.insert(path.clone(), (md, Vec::new()));
                Vec::new()
            }
        };
        let handle = FileHandle(self.next_handle);
        self.next_handle += 1;
        self.open.insert(
            handle,
            LocalOpenFile {
                path,
                flags,
                buffer,
                dirty: false,
                detached: false,
            },
        );
        Ok(handle)
    }

    fn read(&mut self, handle: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, ScfsError> {
        let m = self.overheads.read.clone();
        self.charge(&m);
        let file = self
            .open
            .get(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        let start = (offset as usize).min(file.buffer.len());
        let end = start.saturating_add(len).min(file.buffer.len());
        Ok(file.buffer[start..end].to_vec())
    }

    fn handle_size(&mut self, handle: FileHandle) -> Result<u64, ScfsError> {
        self.open
            .get(&handle)
            .map(|f| f.buffer.len() as u64)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })
    }

    fn write(&mut self, handle: FileHandle, offset: u64, data: &[u8]) -> Result<usize, ScfsError> {
        let m = self.overheads.write.clone();
        self.charge(&m);
        let file = self
            .open
            .get_mut(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        if !file.flags.write {
            return Err(ScfsError::PermissionDenied {
                path: file.path.clone(),
            });
        }
        // As on the agent: an empty write changes nothing, and one past the
        // maximum file size is refused rather than wrapped.
        if data.is_empty() {
            return Ok(0);
        }
        let end = write_end(offset, data.len())?;
        if file.buffer.len() < end {
            file.buffer.resize(end, 0);
        }
        file.buffer[offset as usize..end].copy_from_slice(data);
        file.dirty = true;
        Ok(data.len())
    }

    fn truncate(&mut self, handle: FileHandle, size: u64) -> Result<(), ScfsError> {
        self.charge_syscall();
        let file = self
            .open
            .get_mut(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        file.buffer.resize(truncate_len(size)?, 0);
        file.dirty = true;
        Ok(())
    }

    fn fsync(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.charge_syscall();
        let file = self
            .open
            .get(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        let bytes = file.buffer.len();
        if file.dirty {
            self.charge_disk_write(bytes);
        }
        Ok(())
    }

    fn close(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.charge_syscall();
        let file = self
            .open
            .remove(&handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        if file.dirty && !file.detached {
            let now = self.clock.now();
            if let Some((md, data)) = self.files.get_mut(&file.path) {
                *data = file.buffer;
                md.size = data.len() as u64;
                md.modified_at = now;
                md.version_count += 1;
            }
        }
        Ok(())
    }

    fn stat(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        let dirty = |f: &&LocalOpenFile| f.path == path && f.dirty && !f.detached;
        if let Some(open) = self.open.values().find(dirty) {
            if let Some((md, _)) = self.files.get(&path) {
                let mut md = md.clone();
                md.size = open.buffer.len() as u64;
                return Ok(md);
            }
        }
        self.files
            .get(&path)
            .map(|(md, _)| md.clone())
            .ok_or_else(|| ScfsError::not_found(path))
    }

    fn mkdir(&mut self, path: &str) -> Result<(), ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        if self.files.contains_key(&path) {
            return Err(ScfsError::AlreadyExists { path });
        }
        let now = self.clock.now();
        let md = FileMetadata::new_directory(&path, self.user.clone(), now);
        self.files.insert(path, (md, Vec::new()));
        Ok(())
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        Ok(self
            .files
            .keys()
            .filter(|k| is_child_of(k, &path))
            .cloned()
            .collect())
    }

    fn unlink(&mut self, path: &str) -> Result<(), ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        self.files
            .remove(&path)
            .ok_or_else(|| ScfsError::not_found(path.clone()))?;
        for file in self.open.values_mut().filter(|f| f.path == path) {
            file.detached = true;
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        self.charge_syscall();
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        let affected: Vec<String> = self
            .files
            .keys()
            .filter(|k| is_under(k, &from))
            .cloned()
            .collect();
        if affected.is_empty() {
            return Err(ScfsError::not_found(from));
        }
        let mut clobbered = Vec::new();
        for key in affected {
            if let Some((mut md, data)) = self.files.remove(&key) {
                let new_key = format!("{to}{}", &key[from.len()..]);
                md.path = new_key.clone();
                clobbered.push(new_key.clone());
                self.files.insert(new_key, (md, data));
            }
        }
        // An open handle follows its file, as a descriptor does; one of a
        // name a moved name overwrites, `to` itself or one under it, is
        // detached, as POSIX orphans its inode.
        for file in self.open.values_mut() {
            if is_under(&file.path, &from) {
                file.path = format!("{to}{}", &file.path[from.len()..]);
            } else {
                file.detached |= clobbered.contains(&file.path);
            }
        }
        Ok(())
    }

    fn setfacl(
        &mut self,
        path: &str,
        user: &AccountId,
        permission: Permission,
    ) -> Result<(), ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        let (md, _) = self
            .files
            .get_mut(&path)
            .ok_or_else(|| ScfsError::not_found(path))?;
        md.acl.grant(user.clone(), permission);
        Ok(())
    }

    fn getfacl(&mut self, path: &str) -> Result<Acl, ScfsError> {
        self.charge_syscall();
        let path = normalize_path(path)?;
        self.files
            .get(&path)
            .map(|(md, _)| md.acl.clone())
            .ok_or_else(|| ScfsError::not_found(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> LocalFs {
        LocalFs::with_overheads("LocalFS", "alice".into(), FsOverheads::zero(), 1)
    }

    #[test]
    fn write_read_round_trip() {
        let mut fs = fs();
        fs.write_file("/a.txt", b"hello").unwrap();
        assert_eq!(fs.read_file("/a.txt").unwrap(), b"hello");
        assert_eq!(fs.stat("/a.txt").unwrap().size, 5);
    }

    #[test]
    fn missing_files_error() {
        let mut fs = fs();
        assert!(fs.open("/nope", OpenFlags::read_only()).is_err());
        assert!(fs.stat("/nope").is_err());
        assert!(fs.unlink("/nope").is_err());
    }

    #[test]
    fn an_unlinked_files_handle_is_detached_from_its_name() {
        let mut fs = fs();
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        fs.write(h, 0, b"dead handle bytes").unwrap();
        fs.unlink("/f").unwrap();
        fs.write_file("/f", b"new").unwrap();
        // The handle keeps its own bytes, but the name is the new file's:
        // `stat` answers its size, and the close commits nothing over it.
        assert_eq!(fs.read(h, 0, 4).unwrap(), b"dead");
        assert_eq!(fs.stat("/f").unwrap().size, 3);
        fs.close(h).unwrap();
        assert_eq!(fs.read_file("/f").unwrap(), b"new");
        assert_eq!(fs.stat("/f").unwrap().size, 3);
    }

    #[test]
    fn directories_and_rename() {
        let mut fs = fs();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f1", b"1").unwrap();
        fs.write_file("/d/f2", b"2").unwrap();
        assert_eq!(fs.readdir("/d").unwrap().len(), 2);
        fs.rename("/d", "/e").unwrap();
        assert_eq!(fs.read_file("/e/f1").unwrap(), b"1");
        assert!(fs.stat("/d/f1").is_err());
        fs.unlink("/e/f1").unwrap();
        assert_eq!(fs.readdir("/e").unwrap().len(), 1);
    }

    #[test]
    fn rename_and_readdir_respect_path_boundaries() {
        // The sibling `/ab` of `/a` and the child `/a/a` of `/a`, as in the
        // agent's regressions (`tests/rename_paths.rs`).
        let mut fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/a").unwrap();
        for path in ["/a/a/x", "/a/ab", "/a/b", "/ab"] {
            fs.write_file(path, path.as_bytes()).unwrap();
        }
        assert_eq!(fs.readdir("/a").unwrap(), ["/a/a", "/a/ab", "/a/b"]);
        assert_eq!(fs.readdir("/a/a").unwrap(), ["/a/a/x"]);
        assert_eq!(fs.readdir("/").unwrap(), ["/a", "/ab"]);
        fs.rename("/a", "/c").unwrap();
        assert_eq!(fs.read_file("/c/a/x").unwrap(), b"/a/a/x");
        assert_eq!(fs.read_file("/ab").unwrap(), b"/ab", "/ab stays");
        assert!(fs.stat("/cb").is_err(), "/ab must not become /cb");
        assert_eq!(fs.readdir("/").unwrap(), ["/ab", "/c"]);
    }

    #[test]
    fn overheads_advance_the_clock() {
        let mut fs = LocalFs::new("alice".into(), 2);
        fs.write_file("/f", &vec![0u8; 4096]).unwrap();
        assert!(fs.now().as_millis_f64() > 0.0);
    }

    #[test]
    fn acl_bookkeeping() {
        let mut fs = fs();
        fs.write_file("/f", b"x").unwrap();
        fs.setfacl("/f", &"bob".into(), Permission::Read).unwrap();
        assert!(fs
            .getfacl("/f")
            .unwrap()
            .allows(&"bob".into(), Permission::Read));
    }
}
