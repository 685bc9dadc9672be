//! S3QL-like baseline: a single-user, write-back, chunked cloud file system.
//!
//! S3QL keeps all metadata locally, caches data aggressively and uploads to
//! the cloud in the background, so its metadata-intensive workloads run at
//! local speed (Table 3, Figure 8(a)). Its weak spot, called out explicitly
//! by the paper, is small random writes: data is organized in large chunks
//! (128 KiB recommended) and a FUSE issue makes sub-chunk writes very slow.
//! It supports no sharing — which is exactly the design point SCFS-NS
//! matches, minus the cloud-of-clouds option.
//!
//! Like the real S3QL, blocks are stored **content-addressed and
//! deduplicated**: each 128 KiB block goes to a `s3ql/block/{hash}` object
//! and a block whose hash was already uploaded is skipped. This keeps the
//! baseline honest against SCFS's refcounted global chunk store — both
//! systems move identical content once; what S3QL still lacks is sharing,
//! cloud-of-clouds redundancy and a GC that can reclaim safely. Its
//! blocks are also strictly **fixed-size** (as in the real system), so a
//! mid-file insert shifts every later block boundary and re-uploads the
//! tail — the workload SCFS's content-defined chunking
//! (`scfs::config::ChunkingMode::Cdc`) turns into an O(edit) transfer.

use std::collections::HashSet;
use std::sync::Arc;

use cloud_store::store::{ObjectStore, OpCtx};
use cloud_store::types::{AccountId, Acl, Permission};
use scfs::durability::DurabilityLevel;
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::{normalize_path, FileHandle, FileMetadata, OpenFlags};
use scfs_crypto::{sha256, to_hex, ContentHash};
use sim_core::background::BackgroundScheduler;
use sim_core::latency::LatencyModel;
use sim_core::rng::DetRng;
use sim_core::time::{Clock, SimDuration, SimInstant};

use crate::localfs::{FsOverheads, LocalFs};

/// The S3QL-like baseline file system.
pub struct S3qlLike {
    inner: LocalFs,
    cloud: Arc<dyn ObjectStore>,
    account: AccountId,
    chunk_size: usize,
    sub_chunk_penalty: LatencyModel,
    rng: DetRng,
    /// Background uploads run as scheduler jobs on per-path lanes, like the
    /// SCFS agent's: re-uploads of the same file serialize, different files
    /// overlap (the real S3QL's upload threads).
    scheduler: BackgroundScheduler,
    uploads: u64,
    /// Hashes of the blocks already in the cloud (S3QL's dedup table).
    uploaded_blocks: HashSet<ContentHash>,
    dedup_skipped: u64,
}

impl S3qlLike {
    /// Creates an S3QL-like mount over the given cloud with the recommended
    /// 128 KiB chunk size.
    pub fn new(user: AccountId, cloud: Arc<dyn ObjectStore>, seed: u64) -> Self {
        S3qlLike {
            inner: LocalFs::with_overheads("S3QL", user.clone(), FsOverheads::fuse_j(), seed),
            cloud,
            account: user,
            chunk_size: 128 * 1024,
            // The known FUSE issue: each write smaller than the chunk size
            // pays a read-modify-write of the enclosing chunk.
            sub_chunk_penalty: LatencyModel::uniform_ms(0.42, 0.50),
            rng: DetRng::new(seed ^ 0x5A5A),
            scheduler: BackgroundScheduler::new(),
            uploads: 0,
            uploaded_blocks: HashSet::new(),
            dedup_skipped: 0,
        }
    }

    /// Number of background uploads performed so far.
    pub fn upload_count(&self) -> u64 {
        self.uploads
    }

    /// Number of blocks skipped because identical content was already
    /// uploaded (S3QL's content-addressed dedup).
    pub fn dedup_skipped_blocks(&self) -> u64 {
        self.dedup_skipped
    }

    /// Instant at which all queued background uploads complete.
    pub fn background_drain_instant(&self) -> SimInstant {
        self.scheduler.drain_instant()
    }

    /// Uploads the committed contents of `path` on the file's background
    /// lane and returns the completion instant.
    fn background_upload(&mut self, path: &str) -> SimInstant {
        let data = self.inner.raw_contents(path).unwrap_or(&[]).to_vec();
        self.upload_blocks(path, data)
    }

    /// Uploads `data` as deduplicated blocks on `lane` and returns the
    /// completion instant.
    fn upload_blocks(&mut self, lane: &str, data: Vec<u8>) -> SimInstant {
        let now = self.inner.clock().now();
        let S3qlLike {
            scheduler,
            cloud,
            account,
            chunk_size,
            uploaded_blocks,
            dedup_skipped,
            ..
        } = self;
        let account = account.clone();
        let token = scheduler.spawn(now, Some(lane), |bg_clock| {
            let mut ctx = OpCtx::new(bg_clock, account);
            // One content-addressed object per block, deduplicated: a block
            // whose hash is already stored is not uploaded again.
            for chunk in data.chunks((*chunk_size).max(1)) {
                let hash = sha256(chunk);
                if !uploaded_blocks.insert(hash) {
                    *dedup_skipped += 1;
                    continue;
                }
                let key = format!("s3ql/block/{}", to_hex(&hash));
                cloud.put(&mut ctx, &key, chunk).ok();
            }
            if data.is_empty() {
                let hash = sha256(&[]);
                if uploaded_blocks.insert(hash) {
                    let key = format!("s3ql/block/{}", to_hex(&hash));
                    cloud.put(&mut ctx, &key, &[]).ok();
                } else {
                    *dedup_skipped += 1;
                }
            }
        });
        self.uploads += 1;
        token.ready_at()
    }
}

impl FileSystem for S3qlLike {
    fn name(&self) -> String {
        "S3QL".to_string()
    }

    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    fn sleep(&mut self, duration: SimDuration) {
        self.inner.sleep(duration);
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<FileHandle, ScfsError> {
        self.inner.open(path, flags)
    }

    fn read(&mut self, handle: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, ScfsError> {
        self.inner.read(handle, offset, len)
    }

    fn handle_size(&mut self, handle: FileHandle) -> Result<u64, ScfsError> {
        self.inner.handle_size(handle)
    }

    fn write(&mut self, handle: FileHandle, offset: u64, data: &[u8]) -> Result<usize, ScfsError> {
        if data.len() < self.chunk_size {
            let penalty = self.sub_chunk_penalty.sample(&mut self.rng);
            self.inner.clock_mut().advance(penalty);
        }
        self.inner.write(handle, offset, data)
    }

    fn truncate(&mut self, handle: FileHandle, size: u64) -> Result<(), ScfsError> {
        self.inner.truncate(handle, size)
    }

    fn fsync(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        self.inner.fsync(handle)
    }

    fn sync(&mut self, handle: FileHandle) -> Result<DurabilityLevel, ScfsError> {
        self.inner.fsync(handle)?;
        match self.inner.handle_path(handle) {
            Some(path) => {
                // Upload the handle's current contents (not-yet-closed
                // writes included) on the file's lane and wait for the
                // completion — S3QL's `s3qlctrl flushcache`, per file: the
                // single-cloud level of Table 1.
                let data = self
                    .inner
                    .handle_contents(handle)
                    .unwrap_or_default()
                    .to_vec();
                let ready = self.upload_blocks(&path, data);
                self.inner.clock_mut().advance_to(ready);
                Ok(DurabilityLevel::SingleCloud)
            }
            None => Ok(DurabilityLevel::LocalDisk),
        }
    }

    fn close(&mut self, handle: FileHandle) -> Result<(), ScfsError> {
        let path = self.inner.handle_path(handle);
        let writable = self.inner.handle_writable(handle);
        self.inner.close(handle)?;
        if let (Some(path), true) = (path, writable) {
            // Data is already safe locally; the upload happens in background.
            self.background_upload(&path);
        }
        Ok(())
    }

    fn stat(&mut self, path: &str) -> Result<FileMetadata, ScfsError> {
        self.inner.stat(path)
    }

    fn mkdir(&mut self, path: &str) -> Result<(), ScfsError> {
        self.inner.mkdir(path)
    }

    fn readdir(&mut self, path: &str) -> Result<Vec<String>, ScfsError> {
        self.inner.readdir(path)
    }

    fn unlink(&mut self, path: &str) -> Result<(), ScfsError> {
        self.inner.unlink(path)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), ScfsError> {
        self.inner.rename(from, to)
    }

    fn setfacl(
        &mut self,
        _path: &str,
        _user: &AccountId,
        _permission: Permission,
    ) -> Result<(), ScfsError> {
        // S3QL is strictly single-user: there is no sharing to grant.
        Err(ScfsError::invalid("S3QL does not support file sharing"))
    }

    fn getfacl(&mut self, path: &str) -> Result<Acl, ScfsError> {
        let path = normalize_path(path)?;
        self.inner.getfacl(&path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::sim_cloud::SimulatedCloud;

    fn fs() -> (S3qlLike, Arc<SimulatedCloud>) {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        (
            S3qlLike::new("alice".into(), cloud.clone() as Arc<dyn ObjectStore>, 1),
            cloud,
        )
    }

    #[test]
    fn close_uploads_in_background() {
        let (mut fs, cloud) = fs();
        fs.write_file("/doc", &vec![7u8; 300 * 1024]).unwrap();
        assert_eq!(fs.upload_count(), 1);
        // 300 KiB of constant bytes at a 128 KiB block size: the two full
        // blocks are identical and dedup to one object, plus the 44 KiB tail.
        assert_eq!(cloud.metrics().snapshot().puts, 2);
        assert_eq!(fs.dedup_skipped_blocks(), 1);
        assert_eq!(fs.read_file("/doc").unwrap().len(), 300 * 1024);
    }

    #[test]
    fn identical_content_under_a_second_path_uploads_nothing() {
        let (mut fs, cloud) = fs();
        let data: Vec<u8> = (0..300 * 1024).map(|i| (i % 251) as u8).collect();
        fs.write_file("/a", &data).unwrap();
        let puts_after_first = cloud.metrics().snapshot().puts;
        assert_eq!(puts_after_first, 3, "three distinct blocks");
        // The same bytes under a different path are fully deduplicated,
        // matching what the SCFS global chunk store does.
        fs.write_file("/b", &data).unwrap();
        assert_eq!(cloud.metrics().snapshot().puts, puts_after_first);
        assert_eq!(fs.dedup_skipped_blocks(), 3);
        assert_eq!(fs.read_file("/b").unwrap(), data);
    }

    #[test]
    fn metadata_operations_stay_local() {
        let (mut fs, cloud) = fs();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        fs.stat("/d/f").unwrap();
        fs.readdir("/d").unwrap();
        // Only the data upload touched the cloud.
        assert_eq!(cloud.metrics().snapshot().heads, 0);
        assert_eq!(cloud.metrics().snapshot().lists, 0);
    }

    #[test]
    fn small_writes_pay_the_chunk_penalty() {
        let (mut fs, _) = fs();
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        let start = fs.now();
        for i in 0..100u64 {
            fs.write(h, i * 4096, &[0u8; 4096]).unwrap();
        }
        let small = fs.now().duration_since(start);

        let start = fs.now();
        fs.write(h, 0, &vec![0u8; 4096 * 100]).unwrap();
        let large = fs.now().duration_since(start);
        assert!(
            small.as_millis_f64() > large.as_millis_f64() * 5.0,
            "small-chunk writes should be much slower ({small} vs {large})"
        );
        fs.close(h).unwrap();
    }

    #[test]
    fn sync_waits_for_the_cloud_upload_and_reports_level_2() {
        let (mut fs, cloud) = fs();
        let h = fs.open("/f", OpenFlags::create()).unwrap();
        let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        fs.write(h, 0, &data).unwrap();
        let level = fs.sync(h).unwrap();
        assert_eq!(level, DurabilityLevel::SingleCloud);
        assert!(cloud.metrics().snapshot().puts >= 2, "blocks uploaded");
        assert!(
            fs.now() >= fs.background_drain_instant(),
            "sync waited for its own upload"
        );
        fs.close(h).unwrap();
    }

    #[test]
    fn closes_of_different_files_overlap_in_the_background() {
        // A WAN-latency cloud, so uploads take visible virtual time.
        let cloud = Arc::new(SimulatedCloud::new(
            cloud_store::providers::ProviderProfile::amazon_s3(),
            5,
        ));
        let mut fs = S3qlLike::new("alice".into(), cloud as Arc<dyn ObjectStore>, 5);
        let data_a: Vec<u8> = (0..300 * 1024).map(|i| (i % 251) as u8).collect();
        let data_b: Vec<u8> = (0..300 * 1024).map(|i| (i % 241) as u8).collect();

        let start = fs.now();
        fs.write_file("/a", &data_a).unwrap();
        let a_close = fs.now();
        let a_ready = fs.background_drain_instant();
        fs.write_file("/b", &data_b).unwrap();
        let b_close = fs.now();
        let drain = fs.background_drain_instant();
        assert_eq!(fs.upload_count(), 2);

        // Uploads run on per-file lanes: the drain is bounded by the later
        // close plus one upload, strictly less than the sum of both uploads
        // (the old scalar cursor queued /b behind /a, making it the sum).
        let upload_a = a_ready.duration_since(a_close);
        let upload_b = drain.duration_since(b_close);
        assert!(upload_a > SimDuration::ZERO);
        assert!(upload_b > SimDuration::ZERO);
        assert!(
            drain.duration_since(start) < upload_a + upload_b,
            "drain {} vs serialized {}",
            drain.duration_since(start),
            upload_a + upload_b
        );
    }

    #[test]
    fn sharing_is_not_supported() {
        let (mut fs, _) = fs();
        fs.write_file("/f", b"x").unwrap();
        assert!(fs.setfacl("/f", &"bob".into(), Permission::Read).is_err());
    }
}
