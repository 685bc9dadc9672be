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
//!   the same contents does;
//! * a source that offers hash checkpoints and `prev`'s chunk bytes (a
//!   resumed SHA-256, an insert's shifted tail recognised) rebuilds the same
//!   map and faults the same chunks in as one that offers neither, and an
//!   agent that has them commits the roots, and uploads the chunks, one
//!   without them does.

use std::collections::BTreeMap;
use std::ops::Range;

use proptest::prelude::*;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::cache::TieredStats;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{CdcParams, ChunkMap, ChunkSource, CutRule, FileHandle, OpenFlags};
use scfs_repro::scfs_crypto::{sha256, ContentHash, Sha256};
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

/// Small knobs put a content cut every few dozen bytes, so edits land on,
/// beside and across cuts, and on a last chunk that content cut, all the
/// time.
const SMALL: CdcParams = CdcParams {
    min_size: 16,
    avg_size: 64,
    max_size: 256,
};

fn rules() -> [CutRule; 3] {
    [
        CutRule::Fixed(1000),
        CutRule::Cdc(CdcParams::with_avg(1024)),
        CutRule::Cdc(SMALL),
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

/// Single edits of every kind, each rebuilt from the map of the state
/// before it and checked against the from-scratch cut: overwrites on and
/// across cuts, appends with and without a hole, mid-file inserts written
/// as tail rewrites, and truncates both ways.
#[test]
fn ten_thousand_single_edits_rebuild_to_the_from_scratch_map() {
    let mut rng = DetRng::new(20140614);
    for rule in rules() {
        let mut file = Edited {
            data: rng.bytes(2000),
            dirty: None,
        };
        let mut prev = from_scratch(&file.data, rule);
        let edits = if rule == CutRule::Cdc(SMALL) {
            10_000
        } else {
            1_000
        };
        for _ in 0..edits {
            let len = file.data.len();
            let at = rng.range_u64(0, len as u64) as usize;
            let some = rng.range_u64(1, 300) as usize;
            match rng.next_below(6) {
                0 | 1 => file.write(at, &rng.bytes(some)),
                2 => {
                    let mut tail = rng.bytes(some.min(40));
                    tail.extend_from_slice(&file.data[at..]);
                    file.write(at, &tail);
                }
                3 => file.write(len + rng.next_below(2) as usize * some, &rng.bytes(some)),
                4 => file.truncate(at),
                _ => file.truncate(len + some),
            }
            // Keep the file a few hundred cuts long at most.
            if file.data.len() > 6000 {
                file.truncate(rng.range_u64(0, 6000) as usize);
            }
            prev = assert_rebuild_matches(&prev, &file, rule).0;
            file.dirty = None;
        }
    }
}

/// An append to a file whose old last chunk ends on a content cut, at every
/// such cut: the old last byte fired a boundary that is also EOF, and the
/// re-cut must find it again rather than resume past it.
#[test]
fn an_append_after_a_content_cut_keeps_the_cut() {
    for params in [SMALL, CdcParams::with_avg(1024)] {
        let rule = CutRule::Cdc(params);
        let mut rng = DetRng::new(7);
        let original = rng.bytes(40 * params.avg_size);
        let full = ChunkMap::build_cdc(&original, &params);
        let mut checked = 0;
        for index in 0..full.chunk_count() - 1 {
            let chunk = full.byte_range(index);
            if chunk.len() == params.max_size {
                continue; // forced, not content
            }
            let prev = ChunkMap::build_cdc(&original[..chunk.end], &params);
            assert_eq!(prev.byte_range(prev.chunk_count() - 1), chunk);
            for more in [
                1,
                17,
                params.min_size,
                params.avg_size + 5,
                params.max_size + 1,
            ] {
                let mut file = Edited {
                    data: original[..chunk.end].to_vec(),
                    dirty: None,
                };
                file.write(chunk.end, &rng.bytes(more));
                let (map, _) = assert_rebuild_matches(&prev, &file, rule);
                assert_eq!(
                    map.byte_range(index),
                    chunk,
                    "append of {more} at {}",
                    chunk.end
                );
                checked += 1;
            }
        }
        assert!(checked >= 5 * 20, "only {checked} appends checked");
    }
}

/// A `prev` cut under other min/max knobs of the same average is accepted
/// but not recognisable: the rebuild must still tile the file with chunks
/// that hash to their bytes, and every chunk it cuts — any that is not one
/// of `prev`'s, kept or spliced in whole — is at most this rule's
/// `max_size`, however far `prev`'s boundaries lie. A run of one byte value
/// that never fires a cut puts them a foreign `max_size` apart.
#[test]
fn a_foreign_prev_still_yields_a_valid_tiling() {
    let foreign = [
        CdcParams {
            min_size: 1,
            avg_size: 64,
            max_size: 4096,
        },
        CdcParams {
            min_size: 64,
            avg_size: 64,
            max_size: 64,
        },
        CdcParams {
            min_size: 40,
            avg_size: 64,
            max_size: 1024,
        },
    ];
    let mut rng = DetRng::new(11);
    for other in foreign {
        let uncut = (0..=255u8)
            .find(|&b| ChunkMap::build_cdc(&[b; 5000], &other).chunk_len(0) == other.max_size)
            .unwrap();
        for round in 0..600 {
            let len = rng.range_u64(0, 5000) as usize;
            let data = match round % 2 {
                0 => rng.bytes(len),
                _ => vec![uncut; len],
            };
            let mut file = Edited { data, dirty: None };
            let prev = ChunkMap::build_cdc(&file.data, &other);
            match round % 3 {
                // A few bytes just past a `prev` cut, at an unchanged length.
                0 if prev.chunk_count() > 0 => {
                    let index = rng.next_below(prev.chunk_count() as u64) as usize;
                    let chunk = prev.byte_range(index);
                    let at = chunk.start + rng.next_below(chunk.len().min(100) as u64) as usize;
                    let some = rng.bytes(8.min(len - at));
                    file.write(at, &some);
                }
                _ => file.random_edit(&mut rng),
            }
            let dirty = file.dirty.clone().unwrap_or(0..0);
            let (map, _) = ChunkMap::rebuild(Some(&prev), &file.data, dirty, CutRule::Cdc(SMALL));
            assert_eq!(map.file_len(), file.data.len() as u64);
            let prevs: Vec<_> = (0..prev.chunk_count())
                .map(|index| (prev.byte_range(index), prev.chunks()[index]))
                .collect();
            let mut covered = 0;
            for index in 0..map.chunk_count() {
                let chunk = map.byte_range(index);
                assert_eq!(chunk.start, covered, "{other:?}");
                assert!(!chunk.is_empty());
                let hash = map.chunks()[index];
                assert_eq!(hash, sha256(&file.data[chunk.clone()]));
                let cut = !prevs.contains(&(chunk.clone(), hash));
                assert!(
                    !cut || chunk.len() <= SMALL.max_size,
                    "{chunk:?} under {other:?}"
                );
                covered = chunk.end;
            }
            assert_eq!(covered, file.data.len());
        }
    }
}

/// A file under a handle as an agent holds it: every `prev` chunk no edit
/// touched is absent — garbage until the rebuild faults it in — and each
/// fault is logged. With `offer` set it also offers what an agent keeps:
/// the checkpoints its cuts took and `prev`'s chunk bytes.
struct Offering<'a> {
    data: Vec<u8>,
    real: &'a [u8],
    absent: Vec<Range<usize>>,
    faults: Vec<Range<usize>>,
    offer: bool,
    kept: &'a mut BTreeMap<ContentHash, Vec<Sha256>>,
    held: &'a BTreeMap<ContentHash, Vec<u8>>,
}

impl<'a> Offering<'a> {
    fn new(
        file: &'a Edited,
        prev: &ChunkMap,
        offer: bool,
        kept: &'a mut BTreeMap<ContentHash, Vec<Sha256>>,
        held: &'a BTreeMap<ContentHash, Vec<u8>>,
    ) -> Self {
        let (len, dirty) = (file.data.len(), file.dirty.clone().unwrap_or(0..0));
        let absent: Vec<Range<usize>> = (0..prev.chunk_count())
            .map(|index| prev.byte_range(index))
            .filter(|chunk| chunk.end <= len)
            .filter(|chunk| chunk.end as u64 <= dirty.start || chunk.start as u64 >= dirty.end)
            .collect();
        let mut data = file.data.clone();
        for chunk in &absent {
            data[chunk.clone()].fill(0xA7);
        }
        Offering {
            data,
            real: &file.data,
            absent,
            faults: Vec::new(),
            offer,
            kept,
            held,
        }
    }
}

impl ChunkSource for Offering<'_> {
    type Error = std::convert::Infallible;

    fn bytes(&self) -> &[u8] {
        &self.data
    }

    fn present_until(&self, pos: usize) -> usize {
        let mut holes = self.absent.iter().filter(|chunk| chunk.end > pos);
        holes
            .next()
            .map_or(self.data.len(), |hole| hole.start.max(pos))
    }

    fn fault(&mut self, range: Range<usize>) -> Result<(), Self::Error> {
        let (hit, absent) = self
            .absent
            .drain(..)
            .partition(|chunk| chunk.start < range.end && range.start < chunk.end);
        self.absent = absent;
        for chunk in hit {
            self.data[chunk.clone()].copy_from_slice(&self.real[chunk.clone()]);
            self.faults.push(chunk);
        }
        Ok(())
    }

    fn checkpoints(&self, hash: &ContentHash) -> &[Sha256] {
        match self.kept.get(hash) {
            Some(kept) if self.offer => kept,
            _ => &[],
        }
    }

    fn keep_checkpoints(&mut self, hash: ContentHash, checkpoints: Vec<Sha256>) {
        if self.offer {
            self.kept.insert(hash, checkpoints);
        }
    }

    fn chunk_bytes(&self, hash: &ContentHash) -> Option<&[u8]> {
        self.held
            .get(hash)
            .filter(|_| self.offer)
            .map(Vec::as_slice)
    }
}

/// Rebuilds `file` over `prev` once through a source that offers
/// checkpoints (`kept`, which the cut adds to) and `prev`'s chunk bytes,
/// and once through one that offers neither: both must be the
/// from-scratch map and fault the same chunks in, in the same order, and
/// the offering one may cut no more. Returns the map.
fn assert_offering_rebuild_matches(
    prev: &ChunkMap,
    old: &[u8],
    file: &Edited,
    rule: CutRule,
    kept: &mut BTreeMap<ContentHash, Vec<Sha256>>,
) -> ChunkMap {
    let dirty = file.dirty.clone().unwrap_or(0..0);
    let held: BTreeMap<ContentHash, Vec<u8>> = (0..prev.chunk_count())
        .map(|index| (prev.chunks()[index], old[prev.byte_range(index)].to_vec()))
        .collect();
    let mut none = BTreeMap::new();
    let mut plain = Offering::new(file, prev, false, &mut none, &held);
    let Ok((expected, cut)) = ChunkMap::rebuild_from(Some(prev), &mut plain, dirty.clone(), rule);
    let mut offering = Offering::new(file, prev, true, kept, &held);
    let Ok((map, offered_cut)) = ChunkMap::rebuild_from(Some(prev), &mut offering, dirty, rule);
    assert_eq!(expected, from_scratch(&file.data, rule), "rule {rule:?}");
    assert_eq!(map, expected, "rule {rule:?}, dirty {:?}", file.dirty);
    assert_eq!(offering.faults, plain.faults);
    assert!(offered_cut <= cut);
    map
}

proptest! {
    /// Random scripts of inserts, deletes, overwrites, appends past holes
    /// and truncates, rebuilt through a source that offers checkpoints and
    /// `prev`'s bytes, under every rule of `rules()` and one whose chunks
    /// are long enough to hold checkpoints.
    #[test]
    fn prop_an_offering_source_rebuilds_the_from_scratch_map(
        file_len in 0usize..40_000,
        seed in any::<u64>(),
    ) {
        let long = CutRule::Cdc(CdcParams::with_avg(128 * KIB));
        for rule in rules().into_iter().chain([long]) {
            let mut rng = DetRng::new(seed);
            let len = if rule == long { file_len * 32 } else { file_len };
            let mut file = Edited { data: rng.bytes(len), dirty: None };
            let mut kept = BTreeMap::new();
            let mut prev = from_scratch(&file.data, rule);
            for _handle in 0..4 {
                let old = file.data.clone();
                for _edit in 0..rng.range_u64(1, 4) {
                    let len = file.data.len();
                    match rng.next_below(4) {
                        // Delete, written as a rewrite of the tail.
                        0 if len > 0 => {
                            let at = rng.range_u64(0, len as u64) as usize;
                            let gone = rng.range_u64(1, 3000).min((len - at) as u64) as usize;
                            let tail = file.data[at + gone..].to_vec();
                            file.write(at, &tail);
                            file.truncate(len - gone);
                        }
                        _ => file.random_edit(&mut rng),
                    }
                }
                prev = assert_offering_rebuild_matches(&prev, &old, &file, rule, &mut kept);
                file.dirty = None;
            }
        }
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
        let is_fixed = matches!(config.chunking, CutRule::Fixed(_));
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
    chunked.chunking = CutRule::Fixed(16 * KIB);
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

/// `config` cutting content-defined chunks around `avg` bytes.
fn cdc(config: &ScfsConfig, avg: usize) -> ScfsConfig {
    ScfsConfig {
        chunking: CutRule::Cdc(CdcParams::with_avg(avg)),
        ..config.clone()
    }
}

/// `data` with `inserted` put in at `at`.
fn inserted(data: &[u8], at: usize, inserted: &[u8]) -> Vec<u8> {
    [&data[..at], inserted, &data[at..]].concat()
}

/// Opens `path`, rewrites its bytes from `at` on as `new`'s and truncates
/// it to `new`'s length: an editor's save of an insert or a delete.
fn rewrite_tail(fs: &mut ScfsAgent, path: &str, new: &[u8], at: usize) {
    let h = fs.open(path, OpenFlags::read_write()).unwrap();
    fs.write(h, at as u64, &new[at..]).unwrap();
    fs.truncate(h, new.len() as u64).unwrap();
    fs.close(h).unwrap();
}

/// A mount that kept checkpoints and one that holds none — another mount,
/// on its own backend instance, which never cut the file — make the same edits of
/// two copies of one file: an overwrite deep inside a chunk, an insert and
/// a delete. Each commits the from-scratch root.
#[test]
fn a_mount_without_checkpoints_commits_the_same_root() {
    let config = cdc(&ScfsConfig::test(Mode::Blocking), 256 * KIB);
    let deployment = Deployment::instant(Backend::Aws, 11);
    let mut kept = deployment.mount("alice", config.clone(), 1);
    let mut rng = DetRng::new(5);
    let mut model = rng.bytes(4 * MIB);
    kept.write_file("/f", &model).unwrap();
    kept.write_file("/g", &model).unwrap();
    let mut fresh = deployment.mount("alice", config.clone(), 2);
    fresh.sleep(SimDuration::from_secs(60));
    let at = MIB + 300 * KIB;
    for edit in 0..3 {
        let new = match edit {
            0 => {
                let mut new = model.clone();
                new[at..at + 4 * KIB].copy_from_slice(&rng.bytes(4 * KIB));
                new
            }
            1 => inserted(&model, at, &rng.bytes(KIB)),
            _ => [&model[..at], &model[at + 3 * KIB..]].concat(),
        };
        rewrite_tail(&mut kept, "/f", &new, at);
        rewrite_tail(&mut fresh, "/g", &new, at);
        model = new;
        let root = Some(config.chunk_map(&model).root_hash());
        assert_eq!(kept.stat("/f").unwrap().version_hash, root, "edit {edit}");
        assert_eq!(fresh.stat("/g").unwrap().version_hash, root, "edit {edit}");
    }
    assert_eq!(fresh.read_file("/g").unwrap(), model);
}

/// A 1 KiB insert written as a rewrite of a 500 KiB tail: the close cuts
/// the chunk holding the insert and recognises the shifted chunks after it
/// in the memory tier, and uploads what a writer of both versions from
/// scratch uploads.
fn an_insert_recognises_its_shifted_tail(backend: Backend) {
    let config = cdc(&ScfsConfig::test(Mode::Blocking), 16 * KIB);
    let mut rng = DetRng::new(17);
    let original = rng.bytes(600 * KIB);
    let at = 100 * KIB + 3;
    let edited = inserted(&original, at, &rng.bytes(KIB));
    let mut fs = Deployment::instant(backend, 11).mount("alice", config.clone(), 1);
    fs.write_file("/f", &original).unwrap();
    let base = fs.stats();
    rewrite_tail(&mut fs, "/f", &edited, at);
    let incremental = fs.stats();
    let rehashed = incremental.rehashed_bytes - base.rehashed_bytes;
    assert!(
        rehashed < (edited.len() - at) as u64 / 4,
        "rehashed {rehashed}"
    );

    let mut scratch = Deployment::instant(backend, 11).mount("alice", config.clone(), 1);
    scratch.write_file("/f", &original).unwrap();
    let scratch_base = scratch.stats();
    scratch.write_file("/f", &edited).unwrap();
    let from_scratch = scratch.stats();
    assert_eq!(
        incremental.chunk_uploads - base.chunk_uploads,
        from_scratch.chunk_uploads - scratch_base.chunk_uploads
    );
    assert_eq!(
        incremental.bytes_uploaded - base.bytes_uploaded,
        from_scratch.bytes_uploaded - scratch_base.bytes_uploaded
    );
    for fs in [&mut fs, &mut scratch] {
        let root = Some(config.chunk_map(&edited).root_hash());
        assert_eq!(fs.stat("/f").unwrap().version_hash, root);
        assert_eq!(fs.read_file("/f").unwrap(), edited);
    }
}

#[test]
fn an_insert_recognises_its_shifted_tail_aws() {
    an_insert_recognises_its_shifted_tail(Backend::Aws);
}

#[test]
fn an_insert_recognises_its_shifted_tail_coc() {
    an_insert_recognises_its_shifted_tail(Backend::CloudOfClouds);
}

/// With `prev`'s chunks out of the memory tier there is nothing to compare
/// the shifted tail with: the close cuts and hashes it as before, and
/// reads nothing to get the old bytes — no cache access, no cloud request.
#[test]
fn an_insert_fetches_nothing_to_compare_its_tail() {
    let config = cdc(&ScfsConfig::test(Mode::Blocking), 16 * KIB)
        .with_cache_capacities(Bytes::kib(1), Bytes::gib(1));
    let mut rng = DetRng::new(19);
    let original = rng.bytes(600 * KIB);
    let at = 100 * KIB + 3;
    let edited = inserted(&original, at, &rng.bytes(KIB));
    let mut fs = Deployment::instant(Backend::Aws, 11).mount("alice", config.clone(), 1);
    fs.write_file("/f", &original).unwrap();
    let h = fs.open("/f", OpenFlags::read_write()).unwrap();
    fs.write(h, at as u64, &edited[at..]).unwrap();
    let (stats, cache) = (fs.stats(), fs.cache_stats());
    fs.close(h).unwrap();
    let rehashed = fs.stats().rehashed_bytes - stats.rehashed_bytes;
    assert!(
        rehashed >= (edited.len() - at) as u64,
        "rehashed {rehashed}"
    );
    assert_eq!(fs.stats().cloud_downloads, stats.cloud_downloads);
    assert_eq!(fs.stats().cache_served_reads, stats.cache_served_reads);
    let accesses = |stats: TieredStats| [stats.memory, stats.disk].map(|s| (s.hits, s.misses));
    assert_eq!(accesses(fs.cache_stats()), accesses(cache));
    assert_eq!(fs.read_file("/f").unwrap(), edited);
}
