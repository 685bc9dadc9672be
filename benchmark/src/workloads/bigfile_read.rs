//! `bigfile_read`: a reader paging through files that do not fit its cache.
//!
//! A reader mount and a writer mount of one account on the cloud-of-clouds
//! backend. The same DepSky and crypto layers as `bigfile_edit`, used the
//! other way round: decode, decrypt, verify, lazy range faults, sequential
//! prefetch, tier promotion and demotion, anchor validation on open. The
//! working set is twice the disk tier, so the cache *is* the lever here; the
//! writer's occasional overwrite invalidates the reader's copy.

use scfs::config::{Mode, ScfsConfig};
use sim_core::units::Bytes;

use super::{scaled, SnapshotDirs};
use crate::driver::{CycleResult, Engine, Op, Script};
use crate::env::Env;
use crate::hostclock::HostClock;
use crate::rng::{zipf_weights, Deck, Rng};
use crate::shadow::Shadow;

/// Ten files of 4 MiB: a 40 MiB working set.
const FILES: usize = 10;
const FILE_LEN: usize = 4 << 20;
/// Memory tier 2 MiB (two chunks), disk tier 20 MiB: the working set is 20x
/// the memory tier and 2x the disk tier, so all three outcomes — memory hit,
/// disk hit, cloud fetch — occur at every seed, and about half of the range
/// reads are disk hits, which puts the read median in the middle of that
/// mode rather than on its edge.
const MEMORY_CACHE: Bytes = Bytes::mib(2);
const DISK_CACHE: Bytes = Bytes::mib(20);
/// Popularity skew over the files: about 70 % of reads are served locally,
/// so the read median sits inside the hit mode and the p95 inside the miss
/// mode at every seed (at the issue's 0.9 the split was ~55/45 and the
/// median flipped between modes from seed to seed). Files are dealt from a
/// 40-card deck with these shares, so every seed reads each file equally
/// often and only the order differs.
const ZIPF_THETA: f64 = 1.4;
const FILE_DECK: usize = 40;
/// One reader deck of 44 operations: 28 stats (cheap, ≥ 1000 samples a run),
/// 12 random 64 KiB range reads, 4 whole-file sequential reads in 1 MiB calls
/// (which engage the prefetcher). Ten decks per cycle.
const READER_DECK: [usize; 3] = [28, 12, 4];
const READER_OPS: usize = 440;
/// One writer deck of 8: four 4 KiB overwrites (each invalidates the reader's
/// cached copy), three mkdirs, one rename. Five decks per cycle.
const WRITER_DECK: [usize; 3] = [4, 3, 1];
const WRITER_OPS: usize = 40;
/// The reader thinks 1 s between operations — longer than the 500 ms metadata
/// cache, so an open never trusts metadata older than the previous
/// operation.
const READER_THINK_NS: u64 = 1_000_000_000;
/// The writer paces itself to spread its operations over the reader's
/// makespan (440 reader operations of ~1.1 virtual s each).
const WRITER_THINK_MEAN_NS: f64 = 11e9;

const READER: usize = 0;

struct Pager {
    reader_kinds: Deck,
    reader_files: Deck,
    writer_kinds: Deck,
    writer_files: Deck,
    dirs: SnapshotDirs,
}

fn file_path(i: usize) -> String {
    format!("/big/f{i:02}")
}

impl Script for Pager {
    fn next_op(&mut self, mount: usize, rng: &mut Rng, shadow: &Shadow) -> Op {
        if mount == READER {
            let path = file_path(self.reader_files.deal(rng));
            let len = shadow.len_of(&path);
            return match self.reader_kinds.deal(rng) {
                0 => Op::Stat { path },
                1 => Op::ReadRange {
                    offset: rng.below(len.saturating_sub(65_536).max(1)),
                    len: 65_536,
                    path,
                },
                _ => Op::ReadSeq {
                    path,
                    call: 1 << 20,
                },
            };
        }
        match self.writer_kinds.deal(rng) {
            0 => {
                let path = file_path(self.writer_files.deal(rng));
                let len = shadow.len_of(&path);
                Op::Overwrite {
                    offset: rng.below(len.saturating_sub(4096).max(1)),
                    len: 4096,
                    path,
                }
            }
            kind => self.dirs.next_op(kind == 2),
        }
    }

    fn think_ns(&mut self, mount: usize, rng: &mut Rng) -> u64 {
        if mount == READER {
            READER_THINK_NS
        } else {
            READER_THINK_NS + rng.exponential(WRITER_THINK_MEAN_NS) as u64
        }
    }
}

/// Runs one cycle.
pub fn run_cycle(seed: u64, traced: bool, divisor: usize, host: &HostClock) -> CycleResult {
    let cycle_start = host.on_cpu_ns();
    let config =
        ScfsConfig::paper_default(Mode::Blocking).with_cache_capacities(MEMORY_CACHE, DISK_CACHE);
    let mut engine = Engine::new(Env::coc(seed, traced), config.clone(), seed);
    let account = engine.add_account("alice".to_string());
    let reader = engine.add_mount(account, config.clone(), scaled(READER_OPS, divisor, 44));
    debug_assert_eq!(reader, READER);
    let writer = engine.add_mount(account, config, scaled(WRITER_OPS, divisor, 8));
    engine.populate_dir(writer, "/big");
    for i in 0..FILES {
        let data = engine.mounts[writer].rng.bytes(FILE_LEN);
        engine.populate_file(writer, &file_path(i), data);
    }
    engine.align_start(0);
    let popularity = zipf_weights(FILES, ZIPF_THETA);
    let mut script = Pager {
        reader_kinds: Deck::new(&READER_DECK),
        reader_files: Deck::from_weights(&popularity, FILE_DECK),
        writer_kinds: Deck::new(&WRITER_DECK),
        writer_files: Deck::from_weights(&popularity, FILE_DECK),
        dirs: SnapshotDirs::default(),
    };
    engine.run(&mut script, host, cycle_start);
    engine.finish()
}
