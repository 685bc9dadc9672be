//! Integration tests of the parallel chunk-transfer engine and the lazy
//! byte-range read path — the acceptance criteria of the transfer-pipeline
//! refactor:
//!
//! * closing a dirty 16-chunk file at the engine's wave width of 4 costs
//!   ~4 blob latencies of foreground virtual time (vs ~16 for the backend's
//!   `write_version` in waves of one), on both the AWS and CoC backends —
//!   the manifest rides beside the first chunk wave, or in the metadata
//!   tuple when it fits, so a dirty 1-chunk close costs one blob latency;
//! * a cold `read(0, 4 KiB)` of a 16 MiB file transfers exactly the
//!   manifest plus one chunk;
//! * a cold open + read of a small file, whose manifest rides in the metadata
//!   tuple, costs one coordination read plus one cloud round trip;
//! * sequential readers get upcoming chunks prefetched on the background
//!   clock, and no chunk is ever fetched twice;
//! * `ChunkMap::chunks_for_range` covers exactly the bytes `read` returns
//!   (property-tested over random sizes, offsets and lengths).

use proptest::prelude::*;
use scfs_repro::cloud_store::providers::ProviderSet;
use scfs_repro::cloud_store::store::{ObjectStore, OpCtx};
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{ChunkMap, CutRule, OpenFlags};
use scfs_repro::scfs::TransferOptions;
use scfs_repro::scfs_crypto::sha256;
use scfs_repro::sim_core::latency::LatencyModel;
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::{Clock, SimDuration};
use scfs_repro::workloads::setup::{Backend, Deployment, Plane, Providers};

const MIB: usize = 1 << 20;
/// Per-request latency of the slow clouds in the timing tests.
const CHUNK_LATENCY_MS: f64 = 1_000.0;

/// A fresh deployment of `backend` whose clouds take a constant
/// `CHUNK_LATENCY_MS` per request, beside an instantaneous coordinator.
fn slow(backend: Backend) -> Deployment {
    let clouds = match backend {
        Backend::Aws => 1,
        Backend::CloudOfClouds => 4,
    };
    let mut profiles = ProviderSet::test_backend(clouds);
    for profile in &mut profiles {
        profile.latency.request = LatencyModel::constant_ms(CHUNK_LATENCY_MS);
    }
    Deployment::on(backend)
        .providers(Providers::Explicit(profiles))
        .plane(Plane::Instantaneous)
        .build(11)
}

/// A fresh all-instantaneous single-cloud deployment.
fn aws_fast() -> Deployment {
    Deployment::instant(Backend::Aws, 0)
}

fn mount(deployment: &Deployment, seed: u64) -> ScfsAgent {
    deployment.mount("alice", ScfsConfig::test(Mode::Blocking), seed)
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
fn close_latency_secs(deployment: &Deployment, data: &[u8]) -> f64 {
    let mut fs = mount(deployment, 7);
    let start = fs.now();
    fs.write_file("/big", data).unwrap();
    fs.now().duration_since(start).as_secs_f64()
}

/// Virtual seconds a bare backend instance of the deployment takes to store
/// `data` as a new version, moving its chunks in waves of `parallel`.
fn write_version_secs(deployment: &Deployment, parallel: usize, data: &[u8]) -> f64 {
    let map = ScfsConfig::test(Mode::Blocking).chunk_map(data);
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let opts = TransferOptions::parallel(parallel);
    deployment
        .instance()
        .write_version(&mut ctx, "seq", data, &map, None, true, None, &opts)
        .unwrap();
    clock.now().as_secs_f64()
}

/// A dirty 16-chunk close at the agent's wave width of 4 must cost
/// ~⌈16/4⌉ blob latencies of foreground time, where the same upload in
/// waves of one costs 16 — the manifest rides beside the first wave.
/// Asserted relative to an empirically measured 1-chunk close (one blob
/// latency, plus a little local cache work that only loosens `seq`'s floor)
/// so the same bound holds for the single-request AWS backend and the
/// quorum-per-blob CoC backend.
fn assert_parallel_close(backend: Backend) {
    let (seq_deployment, par_deployment) = (slow(backend), slow(backend));
    let per_blob = close_latency_secs(&seq_deployment, &vec![0x5A; MIB]);
    let file = sixteen_mib();
    let seq = write_version_secs(&seq_deployment, 1, &file);
    let par = close_latency_secs(&par_deployment, &file);
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
    assert_parallel_close(Backend::Aws);
}

#[test]
fn sixteen_chunk_close_costs_four_waves_coc() {
    assert_parallel_close(Backend::CloudOfClouds);
}

/// The single-wave commit: a dirty 1-chunk close is the chunk — its manifest
/// rides in the metadata tuple — with (on CoC) one round of DepSky block
/// PUTs, then the anchor update (free on the test coordinator). The unlock
/// behind it is not on the close's path.
/// The yardstick is independent of the backend layer: one bare PUT of the
/// same bytes to one of the deployment's clouds. Every cloud answers in the
/// same constant request latency, and a DepSky blob write is one round of
/// them, so a second round ordered after the first (a blob written after
/// another) would double `close` and not the yardstick.
fn assert_one_blob_close(backend: Backend) {
    let chunk = vec![0x5A; MIB];
    let mut clock = Clock::new();
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    slow(backend).clouds[0]
        .put(&mut ctx, "bare", &chunk)
        .unwrap();
    let bare_put_secs = clock.now().as_secs_f64();

    let mut fs = mount(&slow(backend), 7);
    let h = fs.open("/one", OpenFlags::create_truncate()).unwrap();
    fs.write(h, 0, &chunk).unwrap();
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
    assert_one_blob_close(Backend::Aws);
}

#[test]
fn one_chunk_dirty_close_costs_one_blob_latency_coc() {
    assert_one_blob_close(Backend::CloudOfClouds);
}

#[test]
fn close_reports_the_parallel_waves() {
    let mut fs = mount(&aws_fast(), 7);
    fs.write_file("/big", &sixteen_mib()).unwrap();
    assert_eq!(fs.stats().chunk_uploads, 16);
    assert_eq!(fs.stats().transfer_waves, 4, "16 chunks / parallelism 4");
}

/// The lazy read path: a cold 4 KiB read of a 16 MiB file moves exactly the
/// manifest plus one chunk.
#[test]
fn cold_4k_read_of_16mib_fetches_one_chunk_and_manifest() {
    let deployment = aws_fast();
    let file = sixteen_mib();
    let mut writer = mount(&deployment, 1);
    writer.write_file("/big", &file).unwrap();

    // A second mount of the same account: cold caches.
    let mut reader = mount(&deployment, 2);
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

fn total_gets(deployment: &Deployment) -> u64 {
    let clouds = deployment.clouds.iter();
    clouds.map(|c| c.metrics().snapshot().gets).sum()
}

/// The paper's protocol minimum for a cold read of a small file (Fig. 3:
/// one anchor read, then one storage-service read): the manifest rode in the
/// metadata tuple, so a second mount with cold caches pays `open` + `read`
/// one coordination read (free on the test coordinator) plus exactly what a
/// bare `read_chunk` of the same bytes costs, in time and in cloud GETs. Two
/// identically built deployments, so neither measurement warms the other.
fn assert_cold_small_read_is_one_round_trip(backend: Backend) {
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 + 7) as u8).collect();
    let written = |deployment: &Deployment| {
        let mut writer = mount(deployment, 1);
        writer.write_file("/small", &data).unwrap();
        writer.now() + SimDuration::from_secs(1)
    };

    let deployment = slow(backend);
    let start = written(&deployment);
    let mut clock = Clock::new();
    clock.advance_to(start);
    let gets = total_gets(&deployment);
    let mut ctx = OpCtx::new(&mut clock, "alice".into());
    let chunk = deployment
        .instance()
        .read_chunk(&mut ctx, "alice-f1", &sha256(&data))
        .unwrap();
    assert_eq!(chunk, data, "the file is one chunk");
    let bare_secs = clock.now().duration_since(start).as_secs_f64();
    let bare_gets = total_gets(&deployment) - gets;

    let deployment = slow(backend);
    let start = written(&deployment);
    let coordinator = deployment.coordinator();
    let mut reader = mount(&deployment, 2);
    reader.sleep(start.duration_since(reader.now()));
    let (gets, accesses) = (total_gets(&deployment), coordinator.access_count());
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
    assert_eq!(total_gets(&deployment) - gets, bare_gets, "chunk GETs only");
    assert_eq!(coordinator.access_count() - accesses, 1, "the anchor read");
    let stats = reader.stats();
    assert_eq!((stats.cloud_downloads, stats.chunk_downloads), (1, 1));
    reader.close(h).unwrap();
}

#[test]
fn cold_small_file_read_costs_one_cloud_round_trip_aws() {
    assert_cold_small_read_is_one_round_trip(Backend::Aws);
}

#[test]
fn cold_small_file_read_costs_one_cloud_round_trip_coc() {
    assert_cold_small_read_is_one_round_trip(Backend::CloudOfClouds);
}

/// Random-access reads fault in only the touched chunks, in the middle and
/// at the tail of the file.
#[test]
fn sparse_reads_fetch_only_touched_chunks() {
    let deployment = aws_fast();
    let file = sixteen_mib();
    let mut writer = mount(&deployment, 1);
    writer.write_file("/big", &file).unwrap();

    let mut reader = mount(&deployment, 2);
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
    let deployment = aws_fast();
    let file = sixteen_mib();
    let mut writer = mount(&deployment, 1);
    writer.write_file("/big", &file).unwrap();

    let mut reader = mount(&deployment, 2);
    reader.sleep(SimDuration::from_secs(1));
    let h = reader.open("/big", OpenFlags::read_only()).unwrap();
    // First read: not yet a sequential pattern — one chunk, no prefetch.
    reader.read(h, 0, 4096).unwrap();
    assert_eq!(reader.stats().prefetched_chunks, 0);
    // Second, sequential read: prefetch of the next chunks kicks in.
    reader.read(h, 4096, 4096).unwrap();
    let stats = reader.stats();
    assert_eq!(stats.prefetched_chunks, 2, "PREFETCH_CHUNKS is 2");
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
    let deployment = aws_fast();
    let file = sixteen_mib();
    let mut writer = mount(&deployment, 1);
    writer.write_file("/big", &file).unwrap();

    let mut reader = mount(&deployment, 2);
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

/// A partial write to a lazily opened file faults in only the chunk it lands
/// in; the other fifteen stay holes, and close still commits a complete,
/// correct version.
#[test]
fn partial_write_to_lazy_handle_round_trips() {
    let deployment = aws_fast();
    let mut file = sixteen_mib();
    let mut writer = mount(&deployment, 1);
    writer.write_file("/big", &file).unwrap();

    let mut editor = mount(&deployment, 2);
    editor.sleep(SimDuration::from_secs(1));
    let h = editor.open("/big", OpenFlags::read_write()).unwrap();
    editor.write(h, (5 * MIB + 17) as u64, b"edited").unwrap();
    editor.close(h).unwrap();
    file[5 * MIB + 17..5 * MIB + 23].copy_from_slice(b"edited");

    let mut checker = mount(&deployment, 3);
    checker.sleep(SimDuration::from_secs(10));
    assert_eq!(checker.read_file("/big").unwrap(), file);
    // The edit fetched exactly one chunk and dirtied exactly that one.
    assert_eq!(editor.stats().chunk_downloads, 1);
    assert_eq!(editor.stats().chunk_uploads, 1);
}

/// The content-defined twin: a cold same-length edit fetches the chunk it
/// lands in and the chunks the re-cut runs into before it falls back onto
/// the old boundaries — not the file.
#[test]
fn partial_write_to_a_lazy_cdc_handle_fetches_the_recut_chunks_only() {
    let deployment = aws_fast();
    let config = ScfsConfig::test(Mode::Blocking).with_cdc();
    let original = DetRng::new(5).bytes(16 * MIB);
    let mut writer = deployment.mount("alice", config.clone(), 1);
    writer.write_file("/big", &original).unwrap();

    let mut editor = deployment.mount("alice", config.clone(), 2);
    editor.sleep(SimDuration::from_secs(1));
    let at = 5 * MIB + 17;
    let h = editor.open("/big", OpenFlags::read_write()).unwrap();
    editor.write(h, at as u64, b"edited").unwrap();
    editor.close(h).unwrap();
    let mut file = original.clone();
    file[at..at + 6].copy_from_slice(b"edited");

    let mut checker = deployment.mount("alice", config.clone(), 3);
    checker.sleep(SimDuration::from_secs(10));
    assert_eq!(checker.read_file("/big").unwrap(), file);
    // What the re-cut reads: from the start of the chunk the edit lands in,
    // over the edit, on to the first cut that lands on an old boundary.
    let old = config.chunk_map(&original);
    let (new, rehashed) =
        ChunkMap::rebuild(Some(&old), &file, at as u64..at as u64 + 6, config.chunking);
    let touched = old.chunks_for_range(at as u64, 6);
    let recut_from = old.byte_range(touched.start).start;
    let recut = old.chunks_for_range(recut_from as u64, rehashed as usize);
    let downloads = editor.stats().chunk_downloads;
    assert!(downloads >= touched.len() as u64);
    assert!(
        downloads <= recut.len() as u64,
        "{downloads} chunks fetched; the re-cut spans {recut:?}"
    );
    assert!(
        recut.len() < old.chunk_count() / 2,
        "{recut:?} of {}",
        old.chunk_count()
    );
    assert_eq!(
        editor.stats().chunk_uploads,
        new.dirty_chunks(Some(&old)).len() as u64
    );
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
        let deployment = aws_fast();
        let chunk_size = 4096usize;
        let file: Vec<u8> = (0..file_len).map(|i| (i * 31 + 7) as u8).collect();
        let mut config = ScfsConfig::test(Mode::Blocking);
        config.chunking = CutRule::Fixed(chunk_size);
        let mut writer = deployment.mount("alice", config.clone(), 1);
        writer.write_file("/f", &file).unwrap();

        let mut reader = deployment.mount("alice", config, 2 + seed);
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
