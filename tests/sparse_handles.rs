//! Integration tests of sparse dirty handles: a handle never reads a chunk
//! the new version does not need.
//!
//! Random sequences of `write`, `truncate`, `read`, `fsync`, `sync` and
//! `close` on cold handles, under fixed and content-defined cuts, run twice:
//! on a sparse handle, and on a reference handle that reads the whole file
//! before its first call, as handles did when every write materialized the
//! file first. Both must read the same bytes, commit the same maps and hash
//! the same bytes (`rehashed_bytes`). The sparse handle must fetch no chunk
//! that none of its calls touched: what a write, truncate or read covers,
//! and what a commit's re-cut spans, spill-over included.

use std::collections::BTreeSet;
use std::ops::Range;

use proptest::prelude::*;
use scfs_repro::scfs::agent::ScfsAgent;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::scfs::types::{CdcParams, ChunkMap, CutRule, FileHandle, OpenFlags};
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::setup::{Backend, Deployment};

const PATH: &str = "/f";

/// What a handle's buffer should be, kept the way the agent keeps it: the
/// bytes, the map the next cut rebuilds from, and the extent written since.
struct Model {
    data: Vec<u8>,
    prev: ChunkMap,
    staged: bool,
    dirty: Option<Range<u64>>,
}

impl Model {
    fn mark(&mut self, written: Range<usize>) {
        let written = written.start as u64..written.end as u64;
        self.dirty = Some(match self.dirty.take() {
            Some(d) => d.start.min(written.start)..d.end.max(written.end),
            None => written,
        });
    }

    fn is_dirty(&self) -> bool {
        self.dirty.is_some() || self.staged
    }

    /// The cut a commit or `fsync` makes: the new map, and the buffer bytes
    /// the re-cut spans.
    fn cut(&mut self, rule: CutRule) -> (ChunkMap, Range<usize>) {
        let dirty = self.dirty.take().unwrap_or(0..0);
        let (map, rehashed) = ChunkMap::rebuild(Some(&self.prev), &self.data, dirty.clone(), rule);
        // The re-cut starts at the previous map's chunk holding the start of
        // the extent: the last one starting at or before it.
        let from = (0..self.prev.chunk_count())
            .map(|i| self.prev.byte_range(i).start)
            .take_while(|&start| start as u64 <= dirty.start)
            .last()
            .unwrap_or(0);
        self.prev = map.clone();
        (map, from..from + rehashed as usize)
    }
}

/// The two handles under test and the model they must both match.
struct Run {
    rule: CutRule,
    sparse: (ScfsAgent, FileHandle),
    reference: (ScfsAgent, FileHandle),
    model: Model,
    /// The map the handle was opened from: chunks of it are what the sparse
    /// handle may fetch.
    opened: ChunkMap,
    /// Chunks of `opened` some call touched.
    touched: BTreeSet<usize>,
}

impl Run {
    fn touch(&mut self, range: Range<usize>) {
        let chunks = self
            .opened
            .chunks_for_range(range.start as u64, range.len());
        self.touched.extend(chunks);
    }

    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        call: impl Fn(&mut ScfsAgent, FileHandle) -> T,
    ) -> T {
        let sparse = call(&mut self.sparse.0, self.sparse.1);
        let reference = call(&mut self.reference.0, self.reference.1);
        assert_eq!(sparse, reference, "the handles diverged ({:?})", self.rule);
        sparse
    }

    fn write(&mut self, at: usize, bytes: &[u8]) {
        let written = self.both(|fs, h| fs.write(h, at as u64, bytes).unwrap());
        assert_eq!(written, bytes.len());
        let (old_len, end) = (self.model.data.len(), at + bytes.len());
        self.touch(at..end);
        if old_len < end {
            self.model.data.resize(end, 0);
        }
        self.model.data[at..end].copy_from_slice(bytes);
        self.model.mark(at.min(old_len)..end);
    }

    fn truncate(&mut self, size: usize) {
        self.both(|fs, h| fs.truncate(h, size as u64).unwrap());
        let old_len = self.model.data.len();
        self.touch(size.min(old_len)..old_len);
        self.model.data.resize(size, 0);
        self.model.mark(old_len.min(size)..size);
    }

    fn read(&mut self, at: usize, len: usize) {
        let read = self.both(|fs, h| fs.read(h, at as u64, len).unwrap());
        let end = (at + len).min(self.model.data.len());
        let start = at.min(end);
        assert_eq!(read, self.model.data[start..end]);
        self.touch(start..end);
    }

    fn fsync(&mut self) {
        self.both(|fs, h| fs.fsync(h).unwrap());
        if self.model.is_dirty() {
            let (_, span) = self.model.cut(self.rule);
            self.touch(span);
            self.model.staged = true;
        }
    }

    /// A commit through `sync` or `close`: both agents anchor the map of the
    /// model's bytes.
    fn commit(&mut self, close: bool) {
        let dirty = self.model.is_dirty();
        self.both(|fs, h| {
            if close {
                fs.close(h).unwrap();
            } else {
                fs.sync(h).unwrap();
            }
            fs.stat(PATH).unwrap().version_hash
        });
        if dirty {
            let (map, span) = self.model.cut(self.rule);
            self.touch(span);
            self.model.staged = false;
            let anchored = self.sparse.0.stat(PATH).unwrap().version_hash;
            assert_eq!(anchored, Some(map.root_hash()), "{:?}", self.rule);
        }
    }
}

fn config(rule: CutRule) -> ScfsConfig {
    let mut config = ScfsConfig::test(Mode::Blocking);
    config.chunking = rule;
    config
}

/// One handle on each deployment: a cold mount opens the file, and the
/// reference handle reads all of it at once.
fn open_both(
    sparse: &Deployment,
    reference: &Deployment,
    rule: CutRule,
    seed: u64,
) -> ((ScfsAgent, FileHandle), (ScfsAgent, FileHandle)) {
    let open = |deployment: &Deployment| {
        // Far enough behind the previous handle's lock release.
        let mut fs = deployment.mount("alice", config(rule), seed);
        fs.sleep(SimDuration::from_secs(60 * seed));
        let h = fs.open(PATH, OpenFlags::read_write()).unwrap();
        (fs, h)
    };
    let (sparse, mut reference) = (open(sparse), open(reference));
    let size = reference.0.handle_size(reference.1).unwrap();
    reference.0.read(reference.1, 0, size as usize).unwrap();
    (sparse, reference)
}

/// Four cold handles in a row, each running a random script of calls.
fn run_scripts(rule: CutRule, file_len: usize, seed: u64) {
    let mut rng = DetRng::new(seed);
    let (sparse, reference) = (
        Deployment::instant(Backend::Aws, 11),
        Deployment::instant(Backend::Aws, 11),
    );
    let original = rng.bytes(file_len);
    for deployment in [&sparse, &reference] {
        let mut writer = deployment.mount("alice", config(rule), 1);
        writer.write_file(PATH, &original).unwrap();
    }
    let mut data = original;
    for handle in 0..4u64 {
        let (s, r) = open_both(&sparse, &reference, rule, 10 + handle);
        let opened = config(rule).chunk_map(&data);
        let mut run = Run {
            rule,
            sparse: s,
            reference: r,
            model: Model {
                data,
                prev: opened.clone(),
                staged: false,
                dirty: None,
            },
            opened,
            touched: BTreeSet::new(),
        };
        let rehashed = |run: &Run| {
            (
                run.sparse.0.stats().rehashed_bytes,
                run.reference.0.stats().rehashed_bytes,
            )
        };
        for _call in 0..rng.range_u64(1, 8) {
            let len = run.model.data.len() as u64;
            let at = rng.range_u64(0, len + 200) as usize;
            match rng.next_below(10) {
                0..=3 => {
                    let some = rng.range_u64(1, 3500) as usize;
                    let bytes = rng.bytes(some);
                    run.write(at.min(len as usize + 100), &bytes);
                }
                4 => run.truncate(rng.range_u64(0, len + 3000) as usize),
                5 | 6 => run.read(at, rng.range_u64(0, 5000) as usize),
                7 => run.fsync(),
                _ => run.commit(false),
            }
        }
        run.commit(true);
        let (sparse_hashed, reference_hashed) = rehashed(&run);
        assert_eq!(sparse_hashed, reference_hashed, "rehashed bytes, {rule:?}");
        let fetched = run.sparse.0.stats().chunk_downloads;
        assert!(
            fetched <= run.touched.len() as u64,
            "{rule:?}: {fetched} chunks fetched, {} touched",
            run.touched.len()
        );
        data = run.model.data;
    }
    let mut checker = sparse.mount("alice", config(rule), 99);
    checker.sleep(SimDuration::from_secs(6000));
    assert_eq!(checker.read_file(PATH).unwrap(), data);
}

fn rules() -> [CutRule; 2] {
    [
        CutRule::Fixed(1000),
        CutRule::Cdc(CdcParams::with_avg(1024)),
    ]
}

proptest! {
    #[test]
    fn prop_sparse_handles_commit_what_materialized_handles_commit(
        file_len in 0usize..30_000,
        seed in any::<u64>(),
    ) {
        for rule in rules() {
            run_scripts(rule, file_len, seed);
        }
    }
}

/// A write covering a chunk whole replaces it unread; a write covering it in
/// part reads it first. A shrink reads the chunk the new EOF falls into, and
/// none it cuts off. The commit reads the holes inside the dirty extent, all
/// in one fetch.
#[test]
fn a_write_or_truncate_fetches_only_the_chunks_it_covers_in_part() {
    let rule = CutRule::Fixed(1000);
    let deployment = Deployment::instant(Backend::Aws, 11);
    let original = DetRng::new(3).bytes(10_000);
    let mut writer = deployment.mount("alice", config(rule), 1);
    writer.write_file(PATH, &original).unwrap();
    let mut expected = original;
    // One cold handle per edit: the chunks its calls fetch, and the chunks
    // and fetches its close adds.
    let edit = |seed: u64, call: &dyn Fn(&mut ScfsAgent, FileHandle)| {
        let mut fs = deployment.mount("alice", config(rule), seed);
        fs.sleep(SimDuration::from_secs(60 * seed));
        let h = fs.open(PATH, OpenFlags::read_write()).unwrap();
        call(&mut fs, h);
        let before = fs.stats();
        fs.close(h).unwrap();
        let after = fs.stats();
        (
            before.chunk_downloads,
            after.chunk_downloads - before.chunk_downloads,
            after.cloud_downloads - before.cloud_downloads,
        )
    };
    // Chunks 2 and 3 whole, and 10 bytes into chunk 4.
    let patch = DetRng::new(4).bytes(2010);
    let fetched = edit(2, &|fs, h| {
        fs.write(h, 2000, &patch).unwrap();
    });
    assert_eq!(fetched, (1, 0, 0));
    expected[2000..4010].copy_from_slice(&patch);
    // Into chunk 8; chunk 9 goes whole.
    let fetched = edit(3, &|fs, h| fs.truncate(h, 8500).unwrap());
    assert_eq!(fetched, (1, 0, 0));
    expected.truncate(8500);
    // Into chunks 1 and 6: the close re-cuts 1 to 6, and fetches 2 to 5.
    let fetched = edit(4, &|fs, h| {
        fs.write(h, 1005, &[8u8; 10]).unwrap();
        fs.write(h, 6005, &[9u8; 10]).unwrap();
    });
    assert_eq!(fetched, (2, 4, 1));
    expected[1005..1015].fill(8);
    expected[6005..6015].fill(9);
    let mut checker = deployment.mount("alice", config(rule), 9);
    checker.sleep(SimDuration::from_secs(600));
    assert_eq!(checker.read_file(PATH).unwrap(), expected);
}

/// A backend instance counts as stored only the chunks it saw stored. When
/// another process of the deployment committed the version a handle opened,
/// the chunks that version added are news to this instance, so the close
/// must upload them although the handle left them unread: it reads them and
/// commits again.
#[test]
fn a_close_uploads_the_holes_another_instance_stored() {
    let rule = CutRule::Fixed(1000);
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let deployment = Deployment::instant(backend, 11);
        let mut expected = DetRng::new(5).bytes(4000);
        let mut writer = deployment.mount("alice", config(rule), 1);
        writer.write_file(PATH, &expected).unwrap();
        // A second process of the deployment rewrites chunk 0.
        let mut other = deployment.mount("alice", config(rule), 2);
        other.sleep(SimDuration::from_secs(60));
        let h = other.open(PATH, OpenFlags::read_write()).unwrap();
        other.write(h, 0, &[1u8; 1000]).unwrap();
        other.close(h).unwrap();
        expected[..1000].fill(1);
        // The writer opens that version and edits chunk 3. Its instance
        // holds a record of the first version only.
        let uploaded = writer.stats().chunk_uploads;
        writer.sleep(SimDuration::from_secs(120));
        let h = writer.open(PATH, OpenFlags::read_write()).unwrap();
        writer.write(h, 3500, b"edit").unwrap();
        writer.close(h).unwrap();
        expected[3500..3504].copy_from_slice(b"edit");
        // Chunk 0 is news to the writer's instance, chunk 3 is new.
        let uploads = writer.stats().chunk_uploads - uploaded;
        assert_eq!(uploads, 2, "{backend:?}");
        let mut checker = deployment.mount("alice", config(rule), 4);
        checker.sleep(SimDuration::from_secs(600));
        assert_eq!(checker.read_file(PATH).unwrap(), expected, "{backend:?}");
    }
}

/// An open handle's holes pin its file against the agent's collector: the
/// versions another handle commits meanwhile reclaim none of the chunks the
/// handle left unread, and its close commits them by reference.
#[test]
fn the_collector_spares_the_version_an_open_handle_left_holes_in() {
    let deployment = Deployment::instant(Backend::Aws, 11);
    // No write lock in a non-sharing mount: two write handles on one file.
    let mut config = config(CutRule::Fixed(1000));
    config.mode = Mode::NonSharing;
    config.gc.written_bytes_threshold = Bytes::new(1);
    config.gc.versions_to_keep = 1;
    let mut fs = deployment.mount("alice", config, 1);
    let mut expected = DetRng::new(6).bytes(4000);
    fs.write_file(PATH, &expected).unwrap();
    let h = fs.open(PATH, OpenFlags::read_write()).unwrap();
    fs.write(h, 3500, b"edit").unwrap();
    expected[3500..3504].copy_from_slice(b"edit");
    for seed in 7..9 {
        fs.write_file(PATH, &DetRng::new(seed).bytes(4000)).unwrap();
    }
    assert!(fs.stats().gc_runs >= 2);
    assert_eq!(fs.stats().gc_reclaimed_versions, 0);
    let before = fs.stats().chunk_uploads;
    fs.close(h).unwrap();
    assert_eq!(fs.stats().chunk_uploads - before, 1);
    assert_eq!(fs.read_file(PATH).unwrap(), expected);
    // Closed, the handle pins nothing: the next cycle reclaims.
    fs.write_file(PATH, &expected).unwrap();
    assert!(fs.stats().gc_reclaimed_versions > 0);
}
