//! Integration tests of the chunked, content-addressed data path: appending
//! a small amount of data to a large file must move O(1) chunks — not the
//! whole file — through both the AWS and CoC backends (the acceptance
//! test of the chunked-pipeline refactor), and unchanged chunks must be
//! shared across versions.

use std::sync::Arc;

use scfs_repro::cloud_store::providers::ProviderSet;
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::ObjectStore;
use scfs_repro::coord::replication::ReplicatedCoordinator;
use scfs_repro::coord::service::CoordinationService;
use scfs_repro::depsky::config::DepSkyConfig;
use scfs_repro::depsky::register::DepSkyClient;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::OpenFlags;

const MIB: usize = 1 << 20;

fn aws_storage() -> Arc<dyn FileStorage> {
    Arc::new(SingleCloudStorage::new(Arc::new(SimulatedCloud::test(
        "s3",
    ))))
}

fn coc_storage() -> Arc<dyn FileStorage> {
    let clouds: Vec<Arc<dyn ObjectStore>> = ProviderSet::test_backend(4)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Arc::new(SimulatedCloud::new(p, i as u64)) as Arc<dyn ObjectStore>)
        .collect();
    Arc::new(CloudOfCloudsStorage::new(
        DepSkyClient::new(clouds, DepSkyConfig::scfs_default(), 11).unwrap(),
    ))
}

fn mount(storage: Arc<dyn FileStorage>) -> ScfsAgent {
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    ScfsAgent::mount(
        "alice".into(),
        ScfsConfig::test(Mode::Blocking),
        storage,
        Some(coordinator),
        7,
    )
    .unwrap()
}

/// A 16 MiB file whose 1 MiB chunks all differ from one another.
fn sixteen_mib() -> Vec<u8> {
    let mut data = vec![0u8; 16 * MIB];
    for (i, chunk) in data.chunks_mut(MIB).enumerate() {
        chunk.fill(i as u8 + 1);
    }
    data
}

fn append_uploads_one_chunk(storage: Arc<dyn FileStorage>) {
    let mut fs = mount(storage);
    let chunk_size = fs.config().chunk_size.get();
    assert_eq!(chunk_size as usize, MIB, "paper-default chunk size");

    let file = sixteen_mib();
    fs.write_file("/big", &file).unwrap();
    let after_write = fs.stats();
    assert_eq!(after_write.cloud_uploads, 1);
    assert_eq!(after_write.chunk_uploads, 16);
    assert!(after_write.bytes_uploaded >= file.len() as u64);

    // Append 1 KiB: exactly one (partial) chunk plus the manifest moves.
    let h = fs.open("/big", OpenFlags::read_write()).unwrap();
    fs.write(h, file.len() as u64, &[0xAB; 1024]).unwrap();
    fs.close(h).unwrap();
    let after_append = fs.stats();
    assert_eq!(after_append.cloud_uploads, 2);
    assert_eq!(
        after_append.chunk_uploads - after_write.chunk_uploads,
        1,
        "a 1 KiB append must upload exactly one chunk"
    );
    let appended_bytes = after_append.bytes_uploaded - after_write.bytes_uploaded;
    assert!(
        appended_bytes < chunk_size,
        "a 1 KiB append uploaded {appended_bytes} bytes (>= one chunk of {chunk_size})"
    );

    // The file reads back intact.
    let read = fs.read_file("/big").unwrap();
    assert_eq!(read.len(), file.len() + 1024);
    assert_eq!(&read[..file.len()], &file[..]);
    assert_eq!(&read[file.len()..], &[0xAB; 1024]);
}

#[test]
fn append_1kib_to_16mib_uploads_one_chunk_aws() {
    append_uploads_one_chunk(aws_storage());
}

#[test]
fn append_1kib_to_16mib_uploads_one_chunk_coc() {
    append_uploads_one_chunk(coc_storage());
}

#[test]
fn small_edit_in_the_middle_uploads_one_chunk() {
    let mut fs = mount(aws_storage());
    let file = sixteen_mib();
    fs.write_file("/big", &file).unwrap();
    let before = fs.stats();

    // Flip one byte in the middle of chunk 8.
    let h = fs.open("/big", OpenFlags::read_write()).unwrap();
    fs.write(h, (8 * MIB + 12345) as u64, &[0xEE]).unwrap();
    fs.close(h).unwrap();
    let after = fs.stats();
    assert_eq!(after.chunk_uploads - before.chunk_uploads, 1);
}

#[test]
fn reader_fetches_only_missing_chunks() {
    // Alice and Bob share one cloud and coordination service.
    let storage = aws_storage();
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let mut alice = ScfsAgent::mount(
        "alice".into(),
        ScfsConfig::test(Mode::Blocking),
        storage.clone(),
        Some(coordinator.clone()),
        1,
    )
    .unwrap();
    let mut bob = ScfsAgent::mount(
        "bob".into(),
        ScfsConfig::test(Mode::Blocking),
        storage,
        Some(coordinator),
        2,
    )
    .unwrap();

    let file = sixteen_mib();
    alice.write_file("/shared/big", &file).unwrap();
    alice
        .setfacl(
            "/shared/big",
            &"bob".into(),
            scfs_repro::cloud_store::types::Permission::Write,
        )
        .unwrap();

    // Bob's first read faults every chunk in.
    bob.sleep(scfs_repro::sim_core::time::SimDuration::from_secs(1));
    assert_eq!(bob.read_file("/shared/big").unwrap(), file);
    assert_eq!(bob.stats().chunk_downloads, 16);

    // Alice appends 1 KiB; Bob only fetches the manifest and the new chunk —
    // the 16 cached chunks are reused because they are content-addressed.
    let h = alice.open("/shared/big", OpenFlags::read_write()).unwrap();
    alice.write(h, file.len() as u64, &[7u8; 1024]).unwrap();
    alice.close(h).unwrap();
    bob.sleep(scfs_repro::sim_core::time::SimDuration::from_secs(1));
    let read = bob.read_file("/shared/big").unwrap();
    assert_eq!(read.len(), file.len() + 1024);
    assert_eq!(
        bob.stats().chunk_downloads,
        17,
        "only the appended chunk should be downloaded"
    );
}

#[test]
fn identical_content_rewrite_uploads_no_chunks() {
    let mut fs = mount(aws_storage());
    let data = vec![42u8; 3 * MIB];
    fs.write_file("/f", &data).unwrap();
    let before = fs.stats();
    // All three chunks are identical: a single chunk object is stored.
    assert_eq!(before.chunk_uploads, 1);
    fs.write_file("/f", &data).unwrap();
    let after = fs.stats();
    assert_eq!(after.chunk_uploads, before.chunk_uploads);
    assert_eq!(fs.read_file("/f").unwrap(), data);
}
