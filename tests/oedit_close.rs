//! Integration tests of the O(edit) close — the acceptance criteria of the
//! dirty-extent refactor:
//!
//! * `ChunkMap::rebuild(prev, data', dirty)` is the from-scratch map of
//!   `data'` — same hashes, offsets, `encode()` bytes and root hash — for
//!   fixed and content-defined cuts, under random edit scripts and the edge
//!   cases a script may miss (property-tested and enumerated);
//! * `AgentStats::rehashed_bytes` pins what a commit actually cuts and
//!   hashes: one chunk for a 4 KiB overwrite, the old last chunk plus the
//!   appended bytes for an append, the edit once across `fsync` + `close`,
//!   the whole buffer for a first or truncating commit;
//! * a handle driven through `fsync`, `sync` and `close` on both backends
//!   commits the versions, and uploads the chunks, a from-scratch writer of
//!   the same contents does.

use std::ops::Range;

use proptest::prelude::*;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{ChunkingMode, Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{CdcParams, ChunkMap, CutRule, FileHandle, OpenFlags};
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{Backend, Deployment};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// A file under edit with the covering extent of its edits, kept the way
/// `ChunkMap::rebuild` asks a caller to: every byte that may differ from the
/// previous state at the same offset, to EOF once the length changed.
struct Edited {
    data: Vec<u8>,
    dirty: Option<Range<u64>>,
}

impl Edited {
    fn mark(&mut self, written: Range<usize>) {
        let written = written.start as u64..written.end as u64;
        self.dirty = Some(match self.dirty.take() {
            Some(d) => d.start.min(written.start)..d.end.max(written.end),
            None => written,
        });
    }

    fn write(&mut self, offset: usize, bytes: &[u8]) {
        let (old_len, end) = (self.data.len(), offset + bytes.len());
        if old_len < end {
            self.data.resize(end, 0);
        }
        self.data[offset..end].copy_from_slice(bytes);
        self.mark(offset.min(old_len)..end);
    }

    fn truncate(&mut self, size: usize) {
        let old_len = self.data.len();
        self.data.resize(size, 0);
        self.mark(old_len.min(size)..size);
    }

    /// One random edit of the kinds an editor issues.
    fn random_edit(&mut self, rng: &mut DetRng) {
        let len = self.data.len();
        let at = rng.range_u64(0, len as u64) as usize;
        let some = rng.range_u64(1, 3000) as usize;
        match rng.next_below(6) {
            // Overwrite in place (may run past EOF).
            0 | 1 => self.write(at, &rng.bytes(some.min(600))),
            // Mid-file insert, written as a rewrite of the shifted tail.
            2 => {
                let mut tail = rng.bytes(some.min(200));
                tail.extend_from_slice(&self.data[at..]);
                self.write(at, &tail);
            }
            // Append, sometimes leaving a hole.
            3 => self.write(len + rng.next_below(3) as usize * 50, &rng.bytes(some)),
            4 => self.truncate(at),
            _ => self.truncate(len + some),
        }
    }
}

fn from_scratch(data: &[u8], rule: CutRule) -> ChunkMap {
    match rule {
        CutRule::Fixed(stride) => ChunkMap::build(data, stride),
        CutRule::Cdc(params) => ChunkMap::build_cdc(data, &params),
    }
}

/// `rebuild` over `prev` and the edits in `file` must be the from-scratch
/// map, never cutting more than the file holds. Returns it with the number
/// of bytes it hashed.
fn assert_rebuild_matches(prev: &ChunkMap, file: &Edited, rule: CutRule) -> (ChunkMap, u64) {
    let dirty = file.dirty.clone().unwrap_or(0..0);
    let (map, rehashed) = ChunkMap::rebuild(Some(prev), &file.data, dirty.clone(), rule);
    let expected = from_scratch(&file.data, rule);
    assert_eq!(map, expected, "rule {rule:?}, dirty {dirty:?}");
    assert_eq!(map.encode(), expected.encode());
    assert_eq!(map.root_hash(), expected.root_hash());
    for index in 0..expected.chunk_count() {
        assert_eq!(map.byte_range(index), expected.byte_range(index));
    }
    assert!(rehashed <= file.data.len() as u64);
    (map, rehashed)
}

fn rules() -> [CutRule; 2] {
    [
        CutRule::Fixed(1000),
        CutRule::Cdc(CdcParams::with_avg(1024)),
    ]
}

proptest! {
    /// Random scripts: several handles in a row, several edits per handle,
    /// each handle's map rebuilt from the previous handle's.
    #[test]
    fn prop_rebuild_equals_the_from_scratch_map(
        file_len in 0usize..40_000,
        seed in any::<u64>(),
    ) {
        for rule in rules() {
            let mut rng = DetRng::new(seed);
            let mut file = Edited { data: rng.bytes(file_len), dirty: None };
            let mut prev = from_scratch(&file.data, rule);
            for _handle in 0..4 {
                for _edit in 0..rng.range_u64(1, 4) {
                    file.random_edit(&mut rng);
                }
                prev = assert_rebuild_matches(&prev, &file, rule).0;
                file.dirty = None;
            }
        }
    }

    /// One small overwrite of a large file hashes a bounded neighbourhood,
    /// not the file.
    #[test]
    fn prop_a_small_overwrite_rehashes_o_edit(
        at_permille in 0usize..1000,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let params = CdcParams::with_avg(1024);
        for rule in [CutRule::Fixed(1000), CutRule::Cdc(params)] {
            let mut rng = DetRng::new(seed);
            let mut file = Edited { data: rng.bytes(200_000), dirty: None };
            let prev = from_scratch(&file.data, rule);
            let at = (file.data.len() - len) * at_permille / 1000;
            file.write(at, &rng.bytes(len));
            let (_, rehashed) = assert_rebuild_matches(&prev, &file, rule);
            // The chunk the edit starts in, the ones it runs through, and —
            // under CDC — the cuts it takes to land on an old boundary.
            prop_assert!(rehashed <= (len + 6 * params.max_size) as u64, "rehashed {rehashed}");
        }
    }
}

/// The cases a random script reaches only by luck, enumerated against the
/// boundaries of the actual map.
#[test]
fn rebuild_edge_cases_match_the_from_scratch_map() {
    for rule in rules() {
        let mut rng = DetRng::new(41);
        let original = rng.bytes(30_000);
        let prev = from_scratch(&original, rule);
        let cuts: Vec<usize> = (0..prev.chunk_count())
            .map(|i| prev.byte_range(i).start)
            .collect();
        let last = prev.byte_range(prev.chunk_count() - 1);
        let edit = |apply: &dyn Fn(&mut Edited)| {
            let mut file = Edited {
                data: original.clone(),
                dirty: None,
            };
            apply(&mut file);
            assert_rebuild_matches(&prev, &file, rule)
        };

        // Nothing written: the previous map, nothing hashed.
        assert_eq!(edit(&|_| {}).1, 0);
        // Edits straddling a cut, ending on one, starting on one.
        let cut = cuts[cuts.len() / 2];
        edit(&|f| f.write(cut - 3, &[0xEE; 6]));
        edit(&|f| f.write(cut - 6, &[0xEE; 6]));
        edit(&|f| f.write(cut, &[0xEE; 6]));
        // An edit confined to one chunk hashes exactly that chunk under
        // fixed strides.
        let (_, rehashed) = edit(&|f| f.write(cut + 1, &[0xEE; 6]));
        if matches!(rule, CutRule::Fixed(_)) {
            assert_eq!(rehashed, 1000);
        }
        // Edits inside the last chunk, with and without a length change.
        edit(&|f| f.write(last.start + 1, &[0xEE; 6]));
        edit(&|f| f.write(last.end - 1, &[0xEE; 6]));
        // An append re-cuts the old last chunk and nothing before it.
        let (_, rehashed) = edit(&|f| f.write(original.len(), &[0xEE; 500]));
        assert_eq!(rehashed as usize, last.len() + 500);
        // Truncates onto a cut, into a chunk, to nothing, and growing.
        edit(&|f| f.truncate(cut));
        edit(&|f| f.truncate(cut + 1));
        edit(&|f| f.truncate(0));
        edit(&|f| f.truncate(original.len() + 5000));
        // Shrink and regrow to the old length: the same length, other bytes.
        edit(&|f| {
            f.truncate(cut);
            f.truncate(original.len());
        });
        // Several writes per handle: the extent covers the gap between them.
        edit(&|f| {
            f.write(cuts[1] + 5, &[1; 10]);
            f.write(cuts[cuts.len() - 2] + 5, &[2; 10]);
        });
        // Identical bytes written back still tile correctly.
        edit(&|f| f.write(cut - 10, &original[cut - 10..cut + 10]));
    }
}

#[test]
fn rebuild_handles_tiny_and_empty_files_and_foreign_maps() {
    let cdc = CdcParams::with_avg(1024);
    for rule in [CutRule::Fixed(1000), CutRule::Cdc(cdc)] {
        // Shorter than `min_size` (and than one stride): a single chunk.
        let mut file = Edited {
            data: vec![7u8; 100],
            dirty: None,
        };
        let prev = from_scratch(&file.data, rule);
        file.write(40, b"edit");
        assert_rebuild_matches(&prev, &file, rule);
        file.write(100, &[9u8; 5000]);
        assert_rebuild_matches(&prev, &file, rule);
        // From and to the empty file.
        let empty = from_scratch(&[], rule);
        assert_rebuild_matches(&empty, &file, rule);
        file.truncate(0);
        assert_rebuild_matches(&prev, &file, rule);
        assert_rebuild_matches(&empty, &file, rule);
    }
    // A previous map of another stride or average is not reused: the whole
    // buffer is cut again.
    let data = DetRng::new(3).bytes(20_000);
    let foreign = [
        (ChunkMap::build(&data, 512), CutRule::Fixed(1000)),
        (ChunkMap::build(&data, 1000), CutRule::Cdc(cdc)),
        (ChunkMap::build_cdc(&data, &cdc), CutRule::Fixed(1000)),
        (
            ChunkMap::build_cdc(&data, &CdcParams::with_avg(2048)),
            CutRule::Cdc(cdc),
        ),
    ];
    for (prev, rule) in &foreign {
        let (map, rehashed) = ChunkMap::rebuild(Some(prev), &data, 10..20, *rule);
        assert_eq!(map, from_scratch(&data, *rule));
        assert_eq!(rehashed, data.len() as u64);
    }
}

/// `rehashed_bytes` spent by `op`.
fn rehashed_by(fs: &mut ScfsAgent, op: impl FnOnce(&mut ScfsAgent)) -> u64 {
    let before = fs.stats().rehashed_bytes;
    op(fs);
    fs.stats().rehashed_bytes - before
}

/// Opens `/big` for writing, runs `edit` on the handle and closes it.
fn edit_big(fs: &mut ScfsAgent, edit: impl FnOnce(&mut ScfsAgent, FileHandle)) {
    let h = fs.open("/big", OpenFlags::read_write()).unwrap();
    edit(fs, h);
    fs.close(h).unwrap();
}

#[test]
fn rehashed_bytes_count_the_edit_not_the_file() {
    let file = DetRng::new(20140614).bytes(16 * MIB);
    let fixed = ScfsConfig::test(Mode::Blocking);
    for config in [fixed.clone(), fixed.with_cdc()] {
        let is_fixed = config.chunking == ChunkingMode::Fixed;
        let mut fs = Deployment::instant(Backend::Aws, 11).mount("alice", config.clone(), 7);
        let mut model = file.clone();

        // A first commit cuts and hashes the whole buffer.
        let first = rehashed_by(&mut fs, |fs| fs.write_file("/big", &file).unwrap());
        assert_eq!(first, file.len() as u64);

        // 4 KiB overwritten in the middle: the chunk it lies in under fixed
        // strides, a few chunks' worth under CDC — not the file.
        let patch = vec![0xA5u8; 4 * KIB];
        let at = 8 * MIB + 300 * KIB;
        let overwrite = rehashed_by(&mut fs, |fs| {
            edit_big(fs, |fs, h| {
                fs.write(h, at as u64, &patch).unwrap();
            })
        });
        model[at..at + patch.len()].copy_from_slice(&patch);
        if is_fixed {
            assert_eq!(overwrite, MIB as u64, "exactly the one chunk written to");
        } else {
            assert!(overwrite >= patch.len() as u64);
            assert!(overwrite < file.len() as u64 / 4, "rehashed {overwrite}");
        }

        // 256 KiB appended: the old last chunk (EOF cut it, so it is never
        // reused across a length change) plus the appended bytes.
        let map = config.chunk_map(&model);
        let old_last = map.chunk_len(map.chunk_count() - 1);
        let tail = vec![0x5Au8; 256 * KIB];
        let append = rehashed_by(&mut fs, |fs| {
            edit_big(fs, |fs, h| {
                fs.write(h, model.len() as u64, &tail).unwrap();
            })
        });
        model.extend_from_slice(&tail);
        assert_eq!(append, (old_last + tail.len()) as u64);

        // write → fsync → close: the fsync cuts the edit, the close re-cuts
        // nothing.
        let synced = rehashed_by(&mut fs, |fs| {
            let h = fs.open("/big", OpenFlags::read_write()).unwrap();
            fs.write(h, MIB as u64 + 17, &patch).unwrap();
            let before_fsync = fs.stats().rehashed_bytes;
            fs.fsync(h).unwrap();
            let after_fsync = fs.stats().rehashed_bytes;
            assert!(after_fsync > before_fsync);
            fs.close(h).unwrap();
            assert_eq!(fs.stats().rehashed_bytes, after_fsync);
        });
        model[MIB + 17..MIB + 17 + patch.len()].copy_from_slice(&patch);
        if is_fixed {
            assert_eq!(synced, MIB as u64);
        } else {
            assert!(synced < file.len() as u64 / 4);
        }
        assert_eq!(
            fs.stat("/big").unwrap().version_hash,
            Some(config.chunk_map(&model).root_hash())
        );

        // An O_TRUNC open has no previous map: the whole new buffer counts.
        let rewrite = rehashed_by(&mut fs, |fs| {
            fs.write_file("/big", &file[..3 * MIB]).unwrap()
        });
        assert_eq!(rewrite, 3 * MIB as u64);
    }
}

/// write, fsync, write, sync, write, close through one handle, against a
/// writer that commits the same two versions from scratch (O_TRUNC opens
/// have no previous map to rebuild from) on a deployment of its own.
fn incremental_commits_match_from_scratch_commits(backend: Backend) {
    let mut chunked = ScfsConfig::test(Mode::Blocking);
    chunked.chunk_size = Bytes::kib(16);
    for config in [chunked.clone(), chunked.with_cdc()] {
        let mut rng = DetRng::new(99);
        let original = rng.bytes(600 * KIB);
        let deployment = Deployment::instant(backend, 11);
        let mut fs = deployment.mount("alice", config.clone(), 1);
        fs.write_file("/f", &original).unwrap();
        let base = fs.stats();

        let mut model = Edited {
            data: original.clone(),
            dirty: None,
        };
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        let write = |fs: &mut ScfsAgent, model: &mut Edited, at: usize, bytes: Vec<u8>| {
            fs.write(h, at as u64, &bytes).unwrap();
            model.write(at, &bytes);
        };
        write(&mut fs, &mut model, 100 * KIB + 5, rng.bytes(3000));
        write(&mut fs, &mut model, 110 * KIB, rng.bytes(10));
        fs.fsync(h).unwrap();
        // A mid-file insert as a tail rewrite, on top of the staged map.
        let mut tail = rng.bytes(700);
        tail.extend_from_slice(&model.data[400 * KIB..]);
        write(&mut fs, &mut model, 400 * KIB, tail);
        fs.sync(h).unwrap();
        let synced = model.data.clone();
        assert_eq!(
            fs.stat("/f").unwrap().version_hash,
            Some(config.chunk_map(&synced).root_hash())
        );
        let len = model.data.len();
        write(&mut fs, &mut model, len, rng.bytes(20 * KIB));
        fs.close(h).unwrap();
        let incremental = fs.stats();

        let mut scratch = Deployment::instant(backend, 11).mount("alice", config.clone(), 1);
        scratch.write_file("/f", &original).unwrap();
        assert_eq!(scratch.stats().chunk_uploads, base.chunk_uploads);
        scratch.write_file("/f", &synced).unwrap();
        scratch.write_file("/f", &model.data).unwrap();
        let from_scratch = scratch.stats();
        assert_eq!(incremental.chunk_uploads, from_scratch.chunk_uploads);
        assert_eq!(incremental.bytes_uploaded, from_scratch.bytes_uploaded);
        assert_eq!(incremental.cloud_uploads, from_scratch.cloud_uploads);
        assert!(
            incremental.rehashed_bytes - base.rehashed_bytes
                < (from_scratch.rehashed_bytes - base.rehashed_bytes) / 2
        );

        // A cold mount reads back the model, under the from-scratch root.
        let mut reader = deployment.mount("alice", config.clone(), 2);
        reader.sleep(SimDuration::from_secs(60));
        assert_eq!(reader.read_file("/f").unwrap(), model.data);
        for fs in [&mut reader, &mut scratch] {
            assert_eq!(
                fs.stat("/f").unwrap().version_hash,
                Some(config.chunk_map(&model.data).root_hash())
            );
        }
    }
}

#[test]
fn incremental_commits_match_from_scratch_commits_aws() {
    incremental_commits_match_from_scratch_commits(Backend::Aws);
}

#[test]
fn incremental_commits_match_from_scratch_commits_coc() {
    incremental_commits_match_from_scratch_commits(Backend::CloudOfClouds);
}
