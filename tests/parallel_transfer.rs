//! Integration tests of the parallel chunk-transfer engine and the lazy
//! byte-range read path — the acceptance criteria of the transfer-pipeline
//! refactor:
//!
//! * closing a dirty 16-chunk file with `max_parallel_transfers = 4` costs
//!   ~4 blob latencies of foreground virtual time (vs ~16 sequentially), on
//!   both the AWS and CoC backends — the manifest rides beside the first
//!   chunk wave, or in the metadata tuple when it fits, so a dirty 1-chunk
//!   close costs one blob latency;
//! * a cold `read(0, 4 KiB)` of a 16 MiB file transfers exactly the
//!   manifest plus one chunk;
//! * a cold open + read of a small file, whose manifest rides in the metadata
//!   tuple, costs one coordination read plus one cloud round trip;
//! * sequential readers get upcoming chunks prefetched on the background
//!   clock, and no chunk is ever fetched twice;
//! * `ChunkMap::chunks_for_range` covers exactly the bytes `read` returns
//!   (property-tested over random sizes, offsets and lengths).

use std::sync::Arc;

use proptest::prelude::*;
use scfs_repro::cloud_store::providers::ProviderProfile;
use scfs_repro::cloud_store::sim_cloud::SimulatedCloud;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::coord::replication::ReplicatedCoordinator;
use scfs_repro::coord::service::CoordinationService;
use scfs_repro::depsky::config::DepSkyConfig;
use scfs_repro::depsky::register::DepSkyClient;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{ChunkMap, OpenFlags};
use scfs_repro::scfs_crypto::sha256;
use scfs_repro::sim_core::latency::LatencyModel;
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::sim_core::units::Bytes;

const MIB: usize = 1 << 20;
/// Per-request latency of the slow clouds in the timing tests.
const CHUNK_LATENCY_MS: f64 = 1_000.0;

fn slow_sim_cloud(id: &str, seed: u64) -> Arc<SimulatedCloud> {
    let mut profile = ProviderProfile::instantaneous(id);
    profile.latency.request = LatencyModel::constant_ms(CHUNK_LATENCY_MS);
    Arc::new(SimulatedCloud::new(profile, seed))
}

fn slow_cloud(id: &str, seed: u64) -> Arc<dyn ObjectStore> {
    slow_sim_cloud(id, seed)
}

fn aws_slow() -> Arc<dyn FileStorage> {
    Arc::new(SingleCloudStorage::new(slow_cloud("s3", 1)))
}

fn coc_slow_sim_clouds() -> Vec<Arc<SimulatedCloud>> {
    (0..4)
        .map(|i| slow_sim_cloud(&format!("cloud{i}"), i as u64))
        .collect()
}

fn coc_client_over(clouds: &[Arc<SimulatedCloud>]) -> DepSkyClient {
    let clouds = clouds
        .iter()
        .map(|c| c.clone() as Arc<dyn ObjectStore>)
        .collect();
    DepSkyClient::new(clouds, DepSkyConfig::scfs_default(), 11).unwrap()
}

fn coc_slow_client() -> DepSkyClient {
    coc_client_over(&coc_slow_sim_clouds())
}

fn coc_slow() -> Arc<dyn FileStorage> {
    Arc::new(CloudOfCloudsStorage::new(coc_slow_client()))
}

fn aws_fast() -> Arc<dyn FileStorage> {
    Arc::new(SingleCloudStorage::new(Arc::new(SimulatedCloud::test(
        "s3",
    ))))
}

fn mount(
    storage: Arc<dyn FileStorage>,
    coordinator: Arc<dyn CoordinationService>,
    parallel: usize,
    seed: u64,
) -> ScfsAgent {
    let mut config = ScfsConfig::test(Mode::Blocking);
    config.max_parallel_transfers = parallel;
    ScfsAgent::mount("alice".into(), config, storage, Some(coordinator), seed).unwrap()
}

/// A 16 MiB file whose 1 MiB chunks all differ from one another.
fn sixteen_mib() -> Vec<u8> {
    let mut data = vec![0u8; 16 * MIB];
    for (i, chunk) in data.chunks_mut(MIB).enumerate() {
        chunk.fill(i as u8 + 1);
    }
    data
}

/// Foreground virtual seconds one agent takes to `write_file` `data`.
fn close_latency_secs(storage: Arc<dyn FileStorage>, parallel: usize, data: &[u8]) -> f64 {
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let mut fs = mount(storage, coordinator, parallel, 7);
    let start = fs.now();
    fs.write_file("/big", data).unwrap();
    fs.now().duration_since(start).as_secs_f64()
}

/// A dirty 16-chunk close at parallelism 4 must cost ~⌈16/4⌉ blob latencies
/// of foreground time instead of 16 — the manifest rides beside the first
/// wave. Asserted relative to an empirically measured 1-chunk close (one blob
/// latency, plus a little local cache work that only loosens `seq`'s floor)
/// so the same bound holds for the single-request AWS backend and the
/// quorum-per-blob CoC backend.
fn assert_parallel_close(storage_seq: Arc<dyn FileStorage>, storage_par: Arc<dyn FileStorage>) {
    let per_blob = close_latency_secs(storage_seq.clone(), 1, &vec![0x5A; MIB]);
    let file = sixteen_mib();
    let seq = close_latency_secs(storage_seq, 1, &file);
    let par = close_latency_secs(storage_par, 4, &file);
    assert!(
        seq >= 15.5 * per_blob,
        "sequential close of 16 chunks took {seq:.2}s (< 16 blobs of {per_blob:.2}s)"
    );
    assert!(
        par <= 4.5 * per_blob,
        "parallel close of 16 chunks took {par:.2}s (> ~4 blobs of {per_blob:.2}s)"
    );
    assert!(
        par < seq / 3.0,
        "parallelism 4 must cut the close latency at least 3x: {par:.2}s vs {seq:.2}s"
    );
}

#[test]
fn sixteen_chunk_close_costs_four_waves_aws() {
    assert_parallel_close(aws_slow(), aws_slow());
}

#[test]
fn sixteen_chunk_close_costs_four_waves_coc() {
    assert_parallel_close(coc_slow(), coc_slow());
}

/// The single-wave commit: a dirty 1-chunk close is the chunk — its manifest
/// rides in the metadata tuple — with (on CoC) both DepSky rounds in flight
/// together, then the two coordination calls (anchor update, unlock — free
/// on the test coordinator).
/// `bare_put_secs` is what the backend pays to store the same bytes as one
/// blob and nothing else.
fn assert_one_blob_close(storage: Arc<dyn FileStorage>, bare_put_secs: f64) {
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let mut fs = mount(storage, coordinator, 4, 7);
    let h = fs.open("/one", OpenFlags::create_truncate()).unwrap();
    fs.write(h, 0, &vec![0x5A; MIB]).unwrap();
    let start = fs.now();
    fs.close(h).unwrap();
    let close = fs.now().duration_since(start).as_secs_f64();
    assert!(
        close <= 1.25 * bare_put_secs,
        "1-chunk dirty close took {close:.3}s, more than one blob of {bare_put_secs:.3}s"
    );
}

#[test]
fn one_chunk_dirty_close_costs_one_blob_latency_aws() {
    let cloud = slow_cloud("s3", 1);
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    cloud.put(&mut ctx, "bare", &vec![0x5A; MIB]).unwrap();
    assert_one_blob_close(aws_slow(), clock.now().as_secs_f64());
}

#[test]
fn one_chunk_dirty_close_costs_one_blob_latency_coc() {
    let depsky = coc_slow_client();
    let chunk = vec![0x5A; MIB];
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    depsky
        .write_blob(&mut ctx, "bare", &sha256(&chunk), &chunk)
        .unwrap();
    assert_one_blob_close(coc_slow(), clock.now().as_secs_f64());
}

#[test]
fn close_reports_the_parallel_waves() {
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let mut fs = mount(aws_fast(), coordinator, 4, 7);
    fs.write_file("/big", &sixteen_mib()).unwrap();
    assert_eq!(fs.stats().chunk_uploads, 16);
    assert_eq!(fs.stats().transfer_waves, 4, "16 chunks / parallelism 4");
}

/// The lazy read path: a cold 4 KiB read of a 16 MiB file moves exactly the
/// manifest plus one chunk.
#[test]
fn cold_4k_read_of_16mib_fetches_one_chunk_and_manifest() {
    let storage = aws_fast();
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let file = sixteen_mib();
    let mut writer = mount(storage.clone(), coordinator.clone(), 4, 1);
    writer.write_file("/big", &file).unwrap();

    // A second mount of the same account: cold caches.
    let mut reader = mount(storage, coordinator, 4, 2);
    reader.sleep(SimDuration::from_secs(1));
    let h = reader.open("/big", OpenFlags::read_only()).unwrap();
    assert_eq!(reader.handle_size(h).unwrap(), file.len() as u64);
    assert_eq!(
        reader.stats().chunk_downloads,
        0,
        "open transfers the manifest only"
    );
    let data = reader.read(h, 0, 4096).unwrap();
    assert_eq!(data, &file[..4096]);
    let stats = reader.stats();
    assert_eq!(stats.chunk_downloads, 1, "exactly one chunk faulted in");
    assert_eq!(stats.bytes_downloaded, MIB as u64);
    assert_eq!(stats.range_reads, 1);
    reader.close(h).unwrap();
}

/// A storage backend over slow clouds, with the clouds kept for their request
/// counters.
type CountedBackend = (Arc<dyn FileStorage>, Vec<Arc<SimulatedCloud>>);

fn aws_slow_counted() -> CountedBackend {
    let cloud = slow_sim_cloud("s3", 1);
    (
        Arc::new(SingleCloudStorage::new(cloud.clone())),
        vec![cloud],
    )
}

fn coc_slow_counted() -> CountedBackend {
    let clouds = coc_slow_sim_clouds();
    let storage = CloudOfCloudsStorage::new(coc_client_over(&clouds));
    (Arc::new(storage), clouds)
}

fn total_gets(clouds: &[Arc<SimulatedCloud>]) -> u64 {
    clouds.iter().map(|c| c.metrics().snapshot().gets).sum()
}

/// The paper's protocol minimum for a cold read of a small file (Fig. 3:
/// one anchor read, then one storage-service read): the manifest rode in the
/// metadata tuple, so a second mount with cold caches pays `open` + `read`
/// one coordination read (free on the test coordinator) plus exactly what a
/// bare `read_chunk` of the same bytes costs, in time and in cloud GETs. Two
/// identically built deployments, so neither measurement warms the other.
fn assert_cold_small_read_is_one_round_trip(build: fn() -> CountedBackend) {
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 + 7) as u8).collect();
    let written = |storage: &Arc<dyn FileStorage>| {
        let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let mut writer = mount(storage.clone(), coordinator.clone(), 4, 1);
        writer.write_file("/small", &data).unwrap();
        (coordinator, writer.now() + SimDuration::from_secs(1))
    };

    let (storage, clouds) = build();
    let (_, start) = written(&storage);
    let mut clock = Clock::new();
    clock.advance_to(start);
    let gets = total_gets(&clouds);
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let chunk = storage
        .read_chunk(&mut ctx, "alice-f1", &sha256(&data))
        .unwrap();
    assert_eq!(chunk, data, "the file is one chunk");
    let bare_secs = clock.now().duration_since(start).as_secs_f64();
    let bare_gets = total_gets(&clouds) - gets;

    let (storage, clouds) = build();
    let (coordinator, start) = written(&storage);
    let mut reader = mount(storage, coordinator.clone(), 4, 2);
    reader.sleep(start.duration_since(reader.now()));
    let (gets, accesses) = (total_gets(&clouds), coordinator.access_count());
    let h = reader.open("/small", OpenFlags::read_only()).unwrap();
    assert_eq!(
        reader.stats().cloud_downloads,
        0,
        "open moved nothing: the tuple carried the manifest"
    );
    assert_eq!(reader.read(h, 0, data.len()).unwrap(), data);
    let cold_secs = reader.now().duration_since(start).as_secs_f64();
    assert!(
        cold_secs <= 1.25 * bare_secs,
        "cold open+read took {cold_secs:.3}s, more than one chunk read of {bare_secs:.3}s"
    );
    assert_eq!(total_gets(&clouds) - gets, bare_gets, "chunk GETs only");
    assert_eq!(coordinator.access_count() - accesses, 1, "the anchor read");
    let stats = reader.stats();
    assert_eq!((stats.cloud_downloads, stats.chunk_downloads), (1, 1));
    reader.close(h).unwrap();
}

#[test]
fn cold_small_file_read_costs_one_cloud_round_trip_aws() {
    assert_cold_small_read_is_one_round_trip(aws_slow_counted);
}

#[test]
fn cold_small_file_read_costs_one_cloud_round_trip_coc() {
    assert_cold_small_read_is_one_round_trip(coc_slow_counted);
}

/// Random-access reads fault in only the touched chunks, in the middle and
/// at the tail of the file.
#[test]
fn sparse_reads_fetch_only_touched_chunks() {
    let storage = aws_fast();
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let file = sixteen_mib();
    let mut writer = mount(storage.clone(), coordinator.clone(), 4, 1);
    writer.write_file("/big", &file).unwrap();

    let mut reader = mount(storage, coordinator, 4, 2);
    reader.sleep(SimDuration::from_secs(1));
    let h = reader.open("/big", OpenFlags::read_only()).unwrap();
    // A read straddling the chunk 7/8 boundary faults exactly two chunks.
    let offset = 8 * MIB - 2048;
    let data = reader.read(h, offset as u64, 4096).unwrap();
    assert_eq!(data, &file[offset..offset + 4096]);
    assert_eq!(reader.stats().chunk_downloads, 2);
    // Re-reading the same range is served locally.
    reader.read(h, offset as u64, 4096).unwrap();
    assert_eq!(reader.stats().chunk_downloads, 2);
    // A tail read past EOF clamps and faults only the last chunk.
    let tail = reader.read(h, (16 * MIB - 100) as u64, 4096).unwrap();
    assert_eq!(tail, &file[16 * MIB - 100..]);
    assert_eq!(reader.stats().chunk_downloads, 3);
    reader.close(h).unwrap();
}

/// A sequential reader triggers background prefetch of the upcoming chunks,
/// and every chunk still moves at most once.
#[test]
fn sequential_reads_prefetch_in_the_background() {
    let storage = aws_fast();
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let file = sixteen_mib();
    let mut writer = mount(storage.clone(), coordinator.clone(), 4, 1);
    writer.write_file("/big", &file).unwrap();

    let mut reader = mount(storage, coordinator, 4, 2);
    reader.sleep(SimDuration::from_secs(1));
    let h = reader.open("/big", OpenFlags::read_only()).unwrap();
    // First read: not yet a sequential pattern — one chunk, no prefetch.
    reader.read(h, 0, 4096).unwrap();
    assert_eq!(reader.stats().prefetched_chunks, 0);
    // Second, sequential read: prefetch of the next chunks kicks in.
    reader.read(h, 4096, 4096).unwrap();
    let stats = reader.stats();
    assert_eq!(stats.prefetched_chunks, 2, "prefetch_chunks defaults to 2");
    assert_eq!(stats.chunk_downloads, 3, "1 faulted + 2 prefetched");
    // Stream the whole file sequentially: correctness, and 16 fetches total.
    let mut assembled = Vec::new();
    let mut offset = 0u64;
    loop {
        let piece = reader.read(h, offset, MIB).unwrap();
        if piece.is_empty() {
            break;
        }
        offset += piece.len() as u64;
        assembled.extend_from_slice(&piece);
    }
    assert_eq!(assembled, file);
    let stats = reader.stats();
    assert_eq!(
        stats.chunk_downloads, 16,
        "every chunk moves exactly once, prefetched or faulted"
    );
    assert!(stats.prefetched_chunks >= 2);
    reader.close(h).unwrap();
}

/// The empty read at EOF that ends a read-until-empty loop must not wrap
/// the prefetcher around to the start of the file.
#[test]
fn eof_read_does_not_prefetch_from_file_start() {
    let storage = aws_fast();
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let file = sixteen_mib();
    let mut writer = mount(storage.clone(), coordinator.clone(), 4, 1);
    writer.write_file("/big", &file).unwrap();

    let mut reader = mount(storage, coordinator, 4, 2);
    reader.sleep(SimDuration::from_secs(1));
    let h = reader.open("/big", OpenFlags::read_only()).unwrap();
    // Read only the last chunk, then hit EOF the way read loops do.
    let tail_offset = (15 * MIB) as u64;
    let tail = reader.read(h, tail_offset, MIB).unwrap();
    assert_eq!(tail, &file[15 * MIB..]);
    let eof = reader.read(h, tail_offset + MIB as u64, MIB).unwrap();
    assert!(eof.is_empty());
    let stats = reader.stats();
    assert_eq!(stats.chunk_downloads, 1, "only the tail chunk moved");
    assert_eq!(
        stats.prefetched_chunks, 0,
        "an EOF read must not prefetch chunks from the start of the file"
    );
    reader.close(h).unwrap();
}

/// A partial write to a lazily opened file materializes the old contents
/// first, so close commits a complete, correct version.
#[test]
fn partial_write_to_lazy_handle_round_trips() {
    let storage = aws_fast();
    let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
    let mut file = sixteen_mib();
    let mut writer = mount(storage.clone(), coordinator.clone(), 4, 1);
    writer.write_file("/big", &file).unwrap();

    let mut editor = mount(storage.clone(), coordinator.clone(), 4, 2);
    editor.sleep(SimDuration::from_secs(1));
    let h = editor.open("/big", OpenFlags::read_write()).unwrap();
    editor.write(h, (5 * MIB + 17) as u64, b"edited").unwrap();
    editor.close(h).unwrap();
    file[5 * MIB + 17..5 * MIB + 23].copy_from_slice(b"edited");

    let mut checker = mount(storage, coordinator, 4, 3);
    checker.sleep(SimDuration::from_secs(10));
    assert_eq!(checker.read_file("/big").unwrap(), file);
    // The edit dirtied exactly one chunk.
    assert_eq!(editor.stats().chunk_uploads, 1);
}

proptest! {
    /// `chunks_for_range` covers exactly the bytes a `read` returns: the
    /// chunk range always contains the requested byte range (clamped to
    /// EOF), and its first and last chunks each overlap it (no over-fetch
    /// at chunk boundaries).
    #[test]
    fn prop_chunks_for_range_is_exact(
        file_len in 0usize..5000,
        chunk_size in 1usize..700,
        offset in 0u64..6000,
        len in 0usize..3000,
    ) {
        let map = ChunkMap::build(&vec![7u8; file_len], chunk_size);
        let range = map.chunks_for_range(offset, len);
        let start = (offset as usize).min(file_len);
        let end = offset.saturating_add(len as u64).min(file_len as u64) as usize;
        if start >= end {
            prop_assert!(range.is_empty(), "empty request maps to no chunks");
        } else {
            prop_assert!(!range.is_empty());
            prop_assert!(range.end <= map.chunk_count());
            let first = map.byte_range(range.start);
            let last = map.byte_range(range.end - 1);
            // Coverage: the chunks span the requested bytes...
            prop_assert!(first.start <= start && end <= last.end);
            // ...and minimality: both edge chunks overlap the request.
            prop_assert!(start < first.end, "first chunk over-fetched");
            prop_assert!(last.start < end, "last chunk over-fetched");
        }
    }

    /// Driving the agent with random (offset, len) pairs returns exactly the
    /// right bytes and downloads exactly the touched chunks.
    #[test]
    fn prop_ranged_reads_return_exact_bytes(
        file_len in 1usize..200_000,
        offset in 0u64..250_000,
        len in 0usize..100_000,
        seed in 0u64..1_000,
    ) {
        let storage = aws_fast();
        let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let chunk_size = 4096usize;
        let file: Vec<u8> = (0..file_len).map(|i| (i * 31 + 7) as u8).collect();
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunk_size = Bytes::new(chunk_size as u64);
        let mut writer = ScfsAgent::mount(
            "alice".into(), config.clone(), storage.clone(), Some(coordinator.clone()), 1,
        ).unwrap();
        writer.write_file("/f", &file).unwrap();

        let mut reader = ScfsAgent::mount(
            "alice".into(), config, storage, Some(coordinator), 2 + seed,
        ).unwrap();
        reader.sleep(SimDuration::from_secs(1));
        let h = reader.open("/f", OpenFlags::read_only()).unwrap();
        let data = reader.read(h, offset, len).unwrap();
        let start = (offset as usize).min(file_len);
        let end = offset.saturating_add(len as u64).min(file_len as u64) as usize;
        prop_assert_eq!(&data[..], &file[start..end]);
        let map = ChunkMap::build(&file, chunk_size);
        let expected: std::collections::HashSet<_> = map
            .chunks_for_range(offset, len)
            .map(|i| map.chunks()[i])
            .collect();
        prop_assert_eq!(
            reader.stats().chunk_downloads,
            expected.len() as u64,
            "downloads must equal the distinct touched chunks"
        );
        reader.close(h).unwrap();
    }
}
