//! `bigfile_edit`: one editor saving small changes to big files.
//!
//! One mount on the cloud-of-clouds backend (four paper clouds, Byzantine
//! coordination service), blocking mode, content-defined chunking. Every
//! dirty close re-chunks and re-hashes the whole file in the agent, uploads
//! the changed chunk through DepSky (Reed–Solomon, ChaCha20, quorum) and
//! periodically triggers GC — so the write path does nearly all the work and
//! the working set fits the memory tier (the cache is not the lever here).

use scfs::config::{Mode, ScfsConfig};
use sim_core::units::Bytes;

use super::{scaled, SnapshotDirs};
use crate::driver::{CycleResult, Engine, Op, Script};
use crate::env::Env;
use crate::hostclock::HostClock;
use crate::rng::{Deck, Rng};
use crate::shadow::Shadow;

/// Six files: enough that consecutive edits rarely hit the same file, few
/// enough that all of them stay in the default 512 MiB memory tier.
const FILES: usize = 6;
/// 4 MiB each (the issue's 8 MiB halved so four cycles fit the run budget):
/// a 4 KiB overwrite still re-chunks 1024x the bytes it wrote.
const FILE_LEN: usize = 4 << 20;
/// One deck of 48 operations: 31 stats, 6 range reads, 8 edits, 3 metadata
/// writes. Stats dominate by count (they cost microseconds and give the stat
/// rows ≥ 1000 samples per run); edits dominate by time. The kinds are dealt
/// from a shuffled deck rather than drawn independently, so every seed does
/// the same amount of each — with only ~70 edits per cycle, independent
/// draws would make one seed's cycle 15 % more work than another's.
const DECK: [usize; 4] = [31, 6, 8, 3];
/// Ten decks per cycle: the first is the warm-up (the first tenth of the
/// sequence), nine are timed — 72 dirty closes per cycle, 288 per run.
const OPS: usize = 480;
/// Edit kinds per eight edits: six 4 KiB overwrites, one 1 KiB insert (tail
/// rewrite), one 256 KiB append.
const EDITS: [usize; 3] = [6, 1, 1];
/// Metadata writes per three: two mkdirs, one rename. Uneven on purpose —
/// with equal shares the pooled median would sit on the boundary between
/// the two calls' latencies and flip from seed to seed.
const MDWRITES: [usize; 2] = [2, 1];
/// GC after 64 MiB written (the default 256 MiB scaled with the file size),
/// i.e. every 16 closes: about four collection cycles per cycle of the run.
const GC_THRESHOLD: Bytes = Bytes::mib(64);
/// One virtual second between operations: longer than the 500 ms metadata
/// cache, so every operation starts with a coordination read and each
/// latency class has one mode instead of a seed-dependent hit/miss mix.
const THINK_NS: u64 = 1_000_000_000;

struct Editor {
    kinds: Deck,
    files: Deck,
    edits: Deck,
    mdwrites: Deck,
    dirs: SnapshotDirs,
}

fn file_path(i: usize) -> String {
    format!("/big/f{i:02}")
}

impl Script for Editor {
    fn next_op(&mut self, _mount: usize, rng: &mut Rng, shadow: &Shadow) -> Op {
        let path = file_path(self.files.deal(rng));
        let len = shadow.len_of(&path);
        match self.kinds.deal(rng) {
            0 => Op::Stat { path },
            1 => Op::ReadRange {
                offset: rng.below(len.saturating_sub(65_536).max(1)),
                len: 65_536,
                path,
            },
            2 => match self.edits.deal(rng) {
                0 => Op::Overwrite {
                    offset: rng.below(len.saturating_sub(4096).max(1)),
                    len: 4096,
                    path,
                },
                // Around the middle (45–55 %), so the rewritten tail — which
                // is what the application reads and writes — is about half
                // the file at every seed.
                1 => Op::Insert {
                    offset: len * 45 / 100 + rng.below((len / 10).max(1)),
                    len: 1024,
                    path,
                },
                _ => Op::Append {
                    path,
                    len: 256 << 10,
                },
            },
            _ => {
                let rename = self.mdwrites.deal(rng) == 1;
                self.dirs.next_op(rename)
            }
        }
    }

    fn think_ns(&mut self, _mount: usize, _rng: &mut Rng) -> u64 {
        THINK_NS
    }
}

/// Runs one cycle.
pub fn run_cycle(seed: u64, traced: bool, divisor: usize, host: &HostClock) -> CycleResult {
    let cycle_start = host.on_cpu_ns();
    let mut config = ScfsConfig::paper_default(Mode::Blocking).with_cdc();
    config.gc.written_bytes_threshold = GC_THRESHOLD;
    let mut engine = Engine::new(Env::coc(seed, traced), config.clone(), seed);
    let account = engine.add_account("alice".to_string());
    let mount = engine.add_mount(account, config, scaled(OPS, divisor, 48));
    engine.populate_dir(mount, "/big");
    for i in 0..FILES {
        let data = engine.mounts[mount].rng.bytes(FILE_LEN);
        engine.populate_file(mount, &file_path(i), data);
    }
    engine.align_start(0);
    let mut script = Editor {
        kinds: Deck::new(&DECK),
        files: Deck::new(&[1; FILES]),
        edits: Deck::new(&EDITS),
        mdwrites: Deck::new(&MDWRITES),
        dirs: SnapshotDirs::default(),
    };
    engine.run(&mut script, host, cycle_start);
    engine.finish()
}
