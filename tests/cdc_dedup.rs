//! Integration tests of content-defined chunking — the acceptance criteria
//! of the shift-resistant-dedup refactor:
//!
//! * a 1 KiB insert at the midpoint of a committed 16 MiB file uploads ≤ 8
//!   chunks under CDC, on both the AWS and CoC backends, while fixed-size
//!   chunking re-uploads the whole shifted tail (~half the chunk count);
//! * CDC and fixed-size maps agree on `chunks_for_range` coverage — every
//!   requested byte lies inside a returned chunk, with no over-fetch at the
//!   edges (property-tested over random layouts);
//! * re-chunking after a random mid-file insert re-uses at least the
//!   hash-shared prefix and resynchronized suffix (property-tested);
//! * v1 (fixed-size) and v2 (extent-table) manifests both round-trip
//!   through `encode`/`decode`, and decode rejects appended garbage.

use proptest::prelude::*;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{CdcParams, ChunkMap};
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::editsync::run_mid_file_insert;
use scfs_repro::workloads::setup::{Backend, Deployment};

const MIB: usize = 1 << 20;

/// `alice` on a fresh instantaneous deployment of `backend`.
fn mount(backend: Backend, config: ScfsConfig, seed: u64) -> ScfsAgent {
    Deployment::instant(backend, 11).mount("alice", config, seed)
}

/// The headline acceptance test, on one backend (a fresh deployment per
/// chunking mode): the 1 KiB mid-file insert into a committed 16 MiB file
/// moves ≤ 8 chunks under CDC and at least half the chunk count under
/// fixed-size chunking.
fn insert_is_o_edit_under_cdc(backend: Backend) {
    let mut fixed_fs = mount(backend, ScfsConfig::test(Mode::Blocking), 5);
    let fixed = run_mid_file_insert(&mut fixed_fs, "/doc", Bytes::mib(16), Bytes::kib(1), 5)
        .expect("fixed-size insert commits");
    assert_eq!(fixed.initial_chunks, 16, "16 distinct 1 MiB chunks");
    assert!(
        fixed.insert_chunks >= 8,
        "fixed-size chunking re-uploads the shifted tail, moved {}",
        fixed.insert_chunks
    );

    let mut cdc_fs = mount(backend, ScfsConfig::test(Mode::Blocking).with_cdc(), 5);
    let cdc = run_mid_file_insert(&mut cdc_fs, "/doc", Bytes::mib(16), Bytes::kib(1), 5)
        .expect("CDC insert commits");
    assert!(
        cdc.insert_chunks <= 8,
        "CDC must move O(edit) chunks, moved {}",
        cdc.insert_chunks
    );
    assert!(
        cdc.insert_bytes < fixed.insert_bytes / 2,
        "CDC moved {} bytes vs {} fixed",
        cdc.insert_bytes,
        fixed.insert_bytes
    );

    // Both agents read the edited file back intact.
    let mut rng = DetRng::new(5);
    let mut expected = rng.bytes(16 * MIB);
    let insert = rng.bytes(1024);
    let mid = expected.len() / 2;
    expected.splice(mid..mid, insert);
    assert_eq!(fixed_fs.read_file("/doc").unwrap(), expected);
    assert_eq!(cdc_fs.read_file("/doc").unwrap(), expected);
}

#[test]
fn midfile_insert_uploads_o_edit_chunks_aws() {
    insert_is_o_edit_under_cdc(Backend::Aws);
}

#[test]
fn midfile_insert_uploads_o_edit_chunks_coc() {
    insert_is_o_edit_under_cdc(Backend::CloudOfClouds);
}

/// A CDC writer and a fixed-size reader (and vice versa) interoperate: the
/// manifest carries its own extent table, so a mount with a different
/// chunking configuration still reads the version it describes.
#[test]
fn mixed_chunking_mounts_interoperate() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut cdc_writer = deployment.mount("alice", ScfsConfig::test(Mode::Blocking).with_cdc(), 1);
    let mut fixed_reader = deployment.mount("alice", ScfsConfig::test(Mode::Blocking), 2);
    let data = DetRng::new(9).bytes(4 * MIB + 12345);
    cdc_writer.write_file("/f", &data).unwrap();
    fixed_reader.sleep(scfs_repro::sim_core::time::SimDuration::from_secs(1));
    assert_eq!(fixed_reader.read_file("/f").unwrap(), data);
    // The fixed-size mount re-commits; the CDC mount reads it back. (The
    // sleep must put the CDC mount's clock past the re-commit instant,
    // which itself sits past the reader's 1 s sleep.)
    fixed_reader.write_file("/f", &data[..2 * MIB]).unwrap();
    cdc_writer.sleep(scfs_repro::sim_core::time::SimDuration::from_secs(10));
    assert_eq!(cdc_writer.read_file("/f").unwrap(), &data[..2 * MIB]);
}

proptest! {
    /// CDC and fixed-size maps agree on `chunks_for_range` coverage: for
    /// any layout, the returned chunk range spans exactly the requested
    /// bytes (clamped to EOF) and both edge chunks overlap the request.
    #[test]
    fn prop_cdc_and_fixed_agree_on_range_coverage(
        file_len in 0usize..60_000,
        avg_pow in 7u32..12,
        offset in 0u64..70_000,
        len in 0usize..30_000,
        seed in 0u64..1_000,
    ) {
        let data = DetRng::new(seed).bytes(file_len);
        let avg = 1usize << avg_pow;
        let maps = [
            ChunkMap::build(&data, avg),
            ChunkMap::build_cdc(&data, &CdcParams::with_avg(avg)),
        ];
        for map in &maps {
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
    }

    /// Re-chunking after a random mid-file insert re-uses the shared
    /// content: the prefix chunks before the edit are bit-identical, and
    /// the dirty set is confined to the edit neighbourhood (the shifted
    /// suffix re-aligns to hashes the previous version already holds).
    #[test]
    fn prop_cdc_rechunk_after_insert_reuses_shared_suffix(
        file_len in 20_000usize..120_000,
        insert_at_permille in 0usize..1000,
        insert_len in 1usize..2_000,
        seed in 0u64..1_000,
    ) {
        let params = CdcParams::with_avg(4096);
        let mut rng = DetRng::new(seed);
        let data = rng.bytes(file_len);
        let before = ChunkMap::build_cdc(&data, &params);

        let pos = file_len * insert_at_permille / 1000;
        let mut edited = data.clone();
        edited.splice(pos..pos, rng.bytes(insert_len));
        let after = ChunkMap::build_cdc(&edited, &params);

        // Prefix reuse: every chunk ending at or before the edit point is
        // untouched (boundaries depend only on content from the chunk's own
        // start).
        for index in 0..after.chunk_count() {
            if after.byte_range(index).end <= pos {
                prop_assert_eq!(
                    after.chunks()[index], before.chunks()[index],
                    "prefix chunk {} must be identical", index
                );
            }
        }
        // Suffix reuse: the dirty set is O(edit), not O(file) — everything
        // past the resync window shares hashes with the previous version.
        let dirty_bytes: usize = after
            .dirty_chunks(Some(&before))
            .iter()
            .map(|&i| after.chunk_len(i))
            .sum();
        prop_assert!(
            dirty_bytes <= insert_len + 4 * params.max_size,
            "a {insert_len}-byte insert dirtied {dirty_bytes} bytes"
        );
    }

    /// v1 and v2 manifests round-trip, decode agrees on every extent, and
    /// appended garbage is rejected for both versions.
    #[test]
    fn prop_manifest_v1_v2_round_trip(
        file_len in 0usize..50_000,
        chunk_size in 1usize..5_000,
        avg_pow in 7u32..12,
        seed in 0u64..1_000,
    ) {
        let data = DetRng::new(seed).bytes(file_len);
        let fixed = ChunkMap::build(&data, chunk_size);
        let cdc = ChunkMap::build_cdc(&data, &CdcParams::with_avg(1 << avg_pow));
        for map in [&fixed, &cdc] {
            let encoded = map.encode();
            let decoded = ChunkMap::decode(&encoded).unwrap();
            prop_assert_eq!(&decoded, map);
            prop_assert_eq!(decoded.root_hash(), map.root_hash());
            for index in 0..map.chunk_count() {
                prop_assert_eq!(decoded.byte_range(index), map.byte_range(index));
            }
            // Trailing garbage makes it a different blob — never the same
            // manifest.
            let mut dirty = encoded.clone();
            dirty.push(7);
            prop_assert!(ChunkMap::decode(&dirty).is_err());
        }
    }
}
