//! S3FS-like baseline: a blocking, single-cloud FUSE file system.
//!
//! S3FS maps every file to one S3 object and talks to S3 on the critical
//! path of most calls: `stat`/`open` issue HEAD/GET requests, file creation
//! PUTs an empty object, and every flush/close PUTs the whole file. It keeps
//! no main-memory cache for open files, which is why its read
//! micro-benchmarks are slower than everyone else's (paper §4.2), and its
//! metadata-intensive workloads are the slowest of all systems evaluated.
//!
//! Its name space is held twice, in the local tree and in S3, and the two
//! can part (the deviation table of `tests/spec.rs` cites this): an open
//! asks S3 first, so opening a directory, which S3 holds as a `/`-suffixed
//! marker object, is `NotFound`; a create PUTs its object before the local
//! create can refuse it; a flush PUTs the path of a handle whose file is
//! gone; and a rename copies the one object at its name, none under it,
//! and onto itself deletes it. An open of a name S3 still holds brings it
//! back locally.

use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::store::{ObjectStore, OpCtx};
use cloud_store::types::{AccountId, Acl, Permission};
use scfs::durability::DurabilityLevel;
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::{normalize_path, parent_of, FileHandle, FileMetadata, OpenFlags};
use sim_core::latency::LatencyModel;
use sim_core::time::{Clock, SimDuration};

use crate::localfs::{FsOverheads, LocalFs};

/// The S3FS-like baseline file system.
pub struct S3fsLike {
    inner: LocalFs,
    cloud: Arc<dyn ObjectStore>,
    account: AccountId,
}

impl S3fsLike {
    /// Creates an S3FS-like mount over the given cloud.
    pub fn new(user: AccountId, cloud: Arc<dyn ObjectStore>, seed: u64) -> Self {
        // S3FS has no main-memory cache for open files: reads and writes pay
        // an extra page-cache-miss overhead compared to the other systems.
        let overheads = FsOverheads {
            syscall: LatencyModel::uniform_ms(0.12, 0.16),
            read: LatencyModel::uniform_ms(0.052, 0.064),
            write: LatencyModel::uniform_ms(0.19, 0.22),
        };
        S3fsLike {
            inner: LocalFs::with_overheads("S3FS", user.clone(), overheads, seed),
            cloud,
            account: user,
        }
    }

    fn object_key(path: &str) -> String {
        format!("s3fs{path}")
    }

    /// Issues one cloud request, charging its latency to the shared clock.
    fn cloud_op<T>(
        &mut self,
        f: impl FnOnce(&dyn ObjectStore, &mut OpCtx<'_>) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let account = self.account.clone();
        let clock = self.inner.clock_mut();
        let mut ctx = OpCtx::new(clock, account);
        f(self.cloud.as_ref(), &mut ctx)
    }
}

impl FileSystem for S3fsLike {
    fn name(&self) -> String {
        "S3FS".to_string()
    }

    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    fn sleep(&mut self, duration: SimDuration) {
        self.inner.sleep(duration);
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<FileHandle, ScfsError> {
        let norm = normalize_path(path)?;
        let key = Self::object_key(&norm);
        // S3FS checks the object (and its parent "directory" marker) on S3.
        let head = self.cloud_op(|cloud, ctx| cloud.head(ctx, &key));
        let parent_key = Self::object_key(&parent_of(&norm));
        self.cloud_op(|cloud, ctx| cloud.head(ctx, &parent_key))
            .ok();
        match head {
            Ok(_) => {
                // Fetch the contents if we have no local copy yet (S3FS keeps
                // a local file cache; re-downloading on every open would also
                // hand back stale data under S3's eventual consistency for
                // overwrites).
                if !flags.truncate && !self.inner.exists(&norm) {
                    let data = self.cloud_op(|cloud, ctx| cloud.get(ctx, &key))?;
                    self.inner.write_file(&norm, &data)?;
                }
            }
            Err(StorageError::NotFound { .. }) => {
                if !flags.create {
                    return Err(ScfsError::not_found(norm));
                }
                // Creating a file immediately PUTs an empty object.
                self.cloud_op(|cloud, ctx| cloud.put(ctx, &key, &[]))?;
            }
            Err(e) => return Err(e.into()),
        }
        self.inner.open(&norm, flags)
    }

    fn read(&mut self, handle: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, ScfsError> {
        self.inner.read(handle, offset, len)
    }

    fn handle_size(&mut self, handle: FileHandle) -> Result<u64, ScfsError> {
        self.inner.handle_size(handle)
    }

    fn write(&mut self, handle: FileHandle, offset: u64, data: &[u8]) -> Result<usize, ScfsError> {
        self.inner.write(handle, offset, data)
    }

    fn truncate(&mut self, handle: FileHandle, size: u64) -> Result<(), ScfsError> {
        self.inner.truncate(handle, size)
    }

    fn fsync(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        // fsync uploads the whole file synchronously.
        if let Some(path) = self.inner.handle_path(handle) {
            self.inner.fsync(handle)?;
            if self.inner.handle_writable(handle) {
                let data = self.inner.raw_contents(&path).unwrap_or(&[]).to_vec();
                let key = Self::object_key(&path);
                self.cloud_op(|cloud, ctx| cloud.put(ctx, &key, &data))?;
            }
            Ok(())
        } else {
            Err(ScfsError::BadHandle { handle: handle.0 })
        }
    }

    fn sync(&mut self, handle: FileHandle) -> Result<DurabilityLevel, ScfsError> {
        // S3FS writes through: fsync already uploads the whole file
        // synchronously, so the data is at the single-cloud level (and a
        // read-only handle mirrors the committed cloud object anyway).
        self.fsync(handle)?;
        Ok(DurabilityLevel::SingleCloud)
    }

    fn close(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        let path = self
            .inner
            .handle_path(handle)
            .ok_or(ScfsError::BadHandle { handle: handle.0 })?;
        let writable = self.inner.handle_writable(handle);
        self.inner.close(handle)?;
        if writable {
            // Blocking whole-file upload on every close of a writable handle.
            let data = self.inner.raw_contents(&path).unwrap_or(&[]).to_vec();
            let key = Self::object_key(&path);
            self.cloud_op(|cloud, ctx| cloud.put(ctx, &key, &data))?;
        }
        Ok(())
    }

    fn stat(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        let norm = normalize_path(path)?;
        let key = Self::object_key(&norm);
        // stat goes to the cloud (object metadata lives in S3 headers).
        match self.cloud_op(|cloud, ctx| cloud.head(ctx, &key)) {
            Ok(_) | Err(StorageError::NotFound { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        self.inner.stat(&norm)
    }

    fn mkdir(&mut self, path: &str) -> Result<(), ScfsError> {
        let norm = normalize_path(path)?;
        let key = Self::object_key(&norm);
        self.cloud_op(|cloud, ctx| cloud.put(ctx, &format!("{key}/"), &[]))?;
        self.inner.mkdir(&norm)
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, ScfsError> {
        let norm = normalize_path(path)?;
        let key = Self::object_key(&norm);
        self.cloud_op(|cloud, ctx| cloud.list(ctx, &key)).ok();
        self.inner.readdir(&norm)
    }

    fn unlink(&mut self, path: &str) -> Result<(), ScfsError> {
        let norm = normalize_path(path)?;
        let key = Self::object_key(&norm);
        match self.cloud_op(|cloud, ctx| cloud.delete(ctx, &key)) {
            Ok(()) | Err(StorageError::NotFound { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        self.inner.unlink(&norm)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        // S3 has no rename: S3FS copies the object and deletes the original.
        let from_n = normalize_path(from)?;
        let to_n = normalize_path(to)?;
        let from_key = Self::object_key(&from_n);
        let to_key = Self::object_key(&to_n);
        if let Ok(data) = self.cloud_op(|cloud, ctx| cloud.get(ctx, &from_key)) {
            self.cloud_op(|cloud, ctx| cloud.put(ctx, &to_key, &data))?;
            self.cloud_op(|cloud, ctx| cloud.delete(ctx, &from_key))
                .ok();
        }
        self.inner.rename(&from_n, &to_n)
    }

    fn setfacl(
        &mut self,
        path: &str,
        user: &AccountId,
        permission: Permission,
    ) -> Result<(), ScfsError> {
        let norm = normalize_path(path)?;
        let key = Self::object_key(&norm);
        let user_c = user.clone();
        self.cloud_op(|cloud, ctx| {
            let mut acl = cloud.get_acl(ctx, &key)?;
            acl.grant(user_c, permission);
            cloud.set_acl(ctx, &key, acl)
        })
        .ok();
        self.inner.setfacl(&norm, user, permission)
    }

    fn getfacl(&mut self, path: &str) -> Result<Acl, ScfsError> {
        self.inner.getfacl(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::sim_cloud::SimulatedCloud;

    fn fs() -> (S3fsLike, Arc<SimulatedCloud>) {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        (
            S3fsLike::new("alice".into(), cloud.clone() as Arc<dyn ObjectStore>, 1),
            cloud,
        )
    }

    #[test]
    fn writes_are_pushed_to_the_cloud_on_close() {
        let (mut fs, cloud) = fs();
        fs.write_file("/doc", b"hello s3fs").unwrap();
        assert!(
            cloud.metrics().snapshot().puts >= 2,
            "create + close uploads"
        );
        assert_eq!(fs.read_file("/doc").unwrap(), b"hello s3fs");
    }

    #[test]
    fn every_stat_contacts_the_cloud() {
        let (mut fs, cloud) = fs();
        fs.write_file("/doc", b"x").unwrap();
        let before = cloud.metrics().snapshot().heads;
        for _ in 0..5 {
            fs.stat("/doc").unwrap();
        }
        assert!(cloud.metrics().snapshot().heads >= before + 5);
    }

    #[test]
    fn open_of_missing_file_without_create_fails() {
        let (mut fs, _) = fs();
        assert!(fs.open("/missing", OpenFlags::read_only()).is_err());
    }

    #[test]
    fn blocking_cloud_access_dominates_latency() {
        let cloud = Arc::new(SimulatedCloud::new(
            cloud_store::providers::ProviderProfile::amazon_s3(),
            3,
        ));
        let mut fs = S3fsLike::new("alice".into(), cloud as Arc<dyn ObjectStore>, 2);
        let start = fs.now();
        fs.write_file("/f", &vec![0u8; 16 * 1024]).unwrap();
        let elapsed = fs.now().duration_since(start);
        // Several S3 round trips: well over a second for a 16 KiB file.
        assert!(elapsed.as_secs_f64() > 1.0, "elapsed {elapsed}");
    }

    #[test]
    fn rename_copies_and_deletes_in_the_cloud() {
        let (mut fs, cloud) = fs();
        fs.write_file("/a", b"data").unwrap();
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.read_file("/b").unwrap(), b"data");
        assert!(cloud.metrics().snapshot().deletes >= 1);
    }
}
