//! Integration tests of the chunked, content-addressed data path: appending
//! a small amount of data to a large file must move O(1) chunks — not the
//! whole file — through both the AWS and CoC backends (the acceptance
//! test of the chunked-pipeline refactor), and unchanged chunks must be
//! shared across versions.

use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{CutRule, OpenFlags};
use scfs_repro::workloads::setup::{Backend, Deployment};

const MIB: usize = 1 << 20;

/// `alice`, blocking, on a fresh instantaneous deployment of `backend`.
fn mount(backend: Backend) -> ScfsAgent {
    Deployment::instant(backend, 11).mount("alice", ScfsConfig::test(Mode::Blocking), 7)
}

/// A 16 MiB file whose 1 MiB chunks all differ from one another.
fn sixteen_mib() -> Vec<u8> {
    let mut data = vec![0u8; 16 * MIB];
    for (i, chunk) in data.chunks_mut(MIB).enumerate() {
        chunk.fill(i as u8 + 1);
    }
    data
}

fn append_uploads_one_chunk(backend: Backend) {
    let mut fs = mount(backend);
    assert_eq!(
        fs.config().chunking,
        CutRule::Fixed(MIB),
        "paper-default chunk size"
    );

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
        appended_bytes < MIB as u64,
        "a 1 KiB append uploaded {appended_bytes} bytes (>= one chunk of {MIB})"
    );

    // The file reads back intact.
    let read = fs.read_file("/big").unwrap();
    assert_eq!(read.len(), file.len() + 1024);
    assert_eq!(&read[..file.len()], &file[..]);
    assert_eq!(&read[file.len()..], &[0xAB; 1024]);
}

#[test]
fn append_1kib_to_16mib_uploads_one_chunk_aws() {
    append_uploads_one_chunk(Backend::Aws);
}

#[test]
fn append_1kib_to_16mib_uploads_one_chunk_coc() {
    append_uploads_one_chunk(Backend::CloudOfClouds);
}

#[test]
fn small_edit_in_the_middle_uploads_one_chunk() {
    let mut fs = mount(Backend::Aws);
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
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut alice = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 1);
    let mut bob = deployment.mount("bob", ScfsConfig::test(Mode::Blocking), 2);

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
    let mut fs = mount(Backend::Aws);
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
