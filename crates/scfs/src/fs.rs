//! The file-system interface shared by SCFS and the baseline systems.
//!
//! The paper evaluates SCFS against S3FS, S3QL and a local FUSE-J file
//! system by driving all of them through the same POSIX-like calls. In the
//! reproduction every system implements [`FileSystem`], and the workload
//! generators in the `workloads` crate are written once against this trait.
//!
//! Each file-system instance owns its client's virtual clock: operations
//! advance it by however long they would have taken, and the workload
//! harness measures elapsed virtual time between two clock readings.

use sim_core::time::{Clock, SimInstant};

use crate::durability::DurabilityLevel;
use crate::error::ScfsError;
use crate::types::{FileHandle, FileMetadata, OpenFlags};

/// A POSIX-like file system driven on virtual time.
pub trait FileSystem {
    /// Human-readable name used in result tables (e.g. `"SCFS-CoC-B"`).
    fn name(&self) -> String;

    /// The client's virtual clock.
    fn clock(&self) -> &Clock;

    /// The current virtual instant of this client.
    fn now(&self) -> SimInstant {
        self.clock().now()
    }

    /// Advances the client's clock by idle (think) time; used by workloads to
    /// simulate user behaviour such as polling intervals.
    fn sleep(&mut self, duration: sim_core::time::SimDuration);

    /// Opens (or creates, with the right flags) a file and returns a handle.
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<FileHandle, ScfsError>;

    /// Reads up to `len` bytes at `offset` from an open file.
    fn read(&mut self, handle: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, ScfsError>;

    /// Current size in bytes of an open file, served from the handle's own
    /// state — no metadata round-trip. `read_file`/`copy_file` use this
    /// instead of a second `stat` after `open`.
    fn handle_size(&mut self, handle: FileHandle) -> Result<u64, ScfsError>;

    /// Writes `data` at `offset` in an open file, returning the bytes written.
    fn write(&mut self, handle: FileHandle, offset: u64, data: &[u8]) -> Result<usize, ScfsError>;

    /// Truncates an open file to `size` bytes.
    fn truncate(&mut self, handle: FileHandle, size: u64) -> Result<(), ScfsError>;

    /// Flushes an open file to the local disk (durability level 1 of Table 1).
    fn fsync(&mut self, handle: FileHandle) -> Result<(), ScfsError>;

    /// Promotes an open file's contents to the highest durability level the
    /// system provides and returns the level reached (Table 1; see
    /// [`crate::durability`]). Cloud-backed systems block until the object's
    /// version commit — pending in the background or started by this call —
    /// has landed; systems without a cloud tier stop at the local disk.
    ///
    /// The default covers local systems: flush to disk, report level 1.
    fn sync(&mut self, handle: FileHandle) -> Result<DurabilityLevel, ScfsError> {
        self.fsync(handle)?;
        Ok(DurabilityLevel::LocalDisk)
    }

    /// Closes an open file, synchronizing data and metadata according to the
    /// system's mode (consistency-on-close).
    fn close(&mut self, handle: FileHandle) -> Result<(), ScfsError>;

    /// Retrieves the metadata of a path (the `stat` call).
    fn stat(&mut self, path: &str) -> Result<FileMetadata, ScfsError>;

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> Result<(), ScfsError>;

    /// Lists the entries of a directory.
    fn readdir(&mut self, path: &str) -> Result<Vec<String>, ScfsError>;

    /// Removes a file (marks it deleted; space is reclaimed by the GC).
    fn unlink(&mut self, path: &str) -> Result<(), ScfsError>;

    /// Renames a file or directory.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), ScfsError>;

    /// Grants `permission` on `path` to `user` (the `setfacl` call, §2.6).
    fn setfacl(
        &mut self,
        path: &str,
        user: &cloud_store::types::AccountId,
        permission: cloud_store::types::Permission,
    ) -> Result<(), ScfsError>;

    /// Reads the ACL of `path` (the `getfacl` call).
    fn getfacl(&mut self, path: &str) -> Result<cloud_store::types::Acl, ScfsError>;

    /// Convenience: copies a whole file within the file system
    /// (open/read/create/write/close), as the Filebench copy-files workload
    /// does. The source size comes from the open handle, not a second
    /// metadata round-trip.
    fn copy_file(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        let data = self.read_file(from)?;
        self.write_file(to, &data)
    }

    /// Convenience: writes a whole file in one open/write/close sequence.
    fn write_file(&mut self, path: &str, data: &[u8]) -> Result<(), ScfsError> {
        let h = self.open(path, OpenFlags::create_truncate())?;
        self.write(h, 0, data)?;
        self.close(h)?;
        Ok(())
    }

    /// Convenience: reads a whole file in one open/read/close sequence. The
    /// size comes from the open handle, not a second metadata round-trip.
    fn read_file(&mut self, path: &str) -> Result<Vec<u8>, ScfsError> {
        let h = self.open(path, OpenFlags::read_only())?;
        let size = self.handle_size(h)?;
        let data = self.read(h, 0, size as usize)?;
        self.close(h)?;
        Ok(data)
    }
}
