//! `metadata_storm`: the metadata plane under load, almost no data path.
//!
//! 256 mounts on the AWS backend with the sharded coordination plane
//! (`ShardTopology::metro(4, 1)`: four ABD register groups of three
//! replicas), the functional-test agent configuration with the metadata
//! cache switched off, so every `stat` reaches the plane. Three quarters of
//! the mounts work in disjoint home directories (the namespace router
//! spreads them over the shards); one quarter share eight team directories
//! (each lands on one shard: the hot spots). The path exercised is agent →
//! metadata service → router → ABD rounds → replica queues → `TupleStore`.

use scfs::config::{Mode, ScfsConfig};
use sim_core::time::SimDuration;

use super::scaled;
use crate::driver::{CycleResult, Engine, Op, Script};
use crate::env::{CoordKind, Env};
use crate::hostclock::HostClock;
use crate::rng::{weighted, Rng};
use crate::shadow::Shadow;

const SHARDS: usize = 4;
/// 192 home mounts + 64 team mounts (8 per team directory).
const HOME_MOUNTS: usize = 192;
const TEAM_DIRS: usize = 8;
const MOUNTS_PER_TEAM: usize = 8;
/// 12 files of 512 bytes per directory: metadata is the payload.
const FILES_PER_DIR: usize = 12;
const FILE_LEN: usize = 512;
/// Operations per mount per cycle: 256 000 per cycle, 1 024 000 per run.
const OPS_PER_MOUNT: usize = 1000;
/// stat, open+read+close, small edit, readdir, mkdir, rename. The 1 % of
/// edits keeps the close and cost rows defined; it is the only data path.
const MIX: [f64; 6] = [0.60, 0.19, 0.01, 0.05, 0.08, 0.07];
/// Mean exponential think time, fixed once at the seed commit so that the
/// plane runs at about 70 % of the `ops_per_vs` it reaches with no think
/// time at all (see README: "How the storm's think time was fixed"). Below
/// saturation both a shorter round and less queueing show up in latency.
const THINK_MEAN_NS: f64 = 3e9;

struct Member {
    dir: String,
    /// Name prefix that keeps this mount's entries apart in a shared
    /// directory, and the one file it may edit.
    tag: String,
    own_file: usize,
    made: Vec<String>,
    next_name: usize,
}

struct Storm {
    members: Vec<Member>,
}

fn file_path(dir: &str, file: usize) -> String {
    format!("{dir}/f{file:02}")
}

impl Script for Storm {
    fn next_op(&mut self, mount: usize, rng: &mut Rng, _shadow: &Shadow) -> Op {
        let member = &mut self.members[mount];
        let any_file = file_path(&member.dir, rng.below(FILES_PER_DIR as u64) as usize);
        match weighted(rng, &MIX) {
            0 => Op::Stat { path: any_file },
            1 => Op::ReadRange {
                path: any_file,
                offset: 0,
                len: FILE_LEN,
            },
            2 => Op::Overwrite {
                path: file_path(&member.dir, member.own_file),
                offset: rng.below((FILE_LEN - 64) as u64),
                len: 64,
            },
            3 => Op::Readdir {
                path: member.dir.clone(),
            },
            5 if !member.made.is_empty() => {
                let victim = rng.below(member.made.len() as u64) as usize;
                let from = member.made.swap_remove(victim);
                member.next_name += 1;
                Op::Rename {
                    to: format!("{}/{}r{:06}", member.dir, member.tag, member.next_name),
                    from,
                }
            }
            // mkdir — also what a rename with nothing to rename becomes.
            _ => {
                member.next_name += 1;
                let path = format!("{}/{}d{:06}", member.dir, member.tag, member.next_name);
                member.made.push(path.clone());
                Op::Mkdir { path }
            }
        }
    }

    fn think_ns(&mut self, _mount: usize, rng: &mut Rng) -> u64 {
        rng.exponential(THINK_MEAN_NS) as u64
    }
}

/// Runs one cycle.
pub fn run_cycle(seed: u64, traced: bool, divisor: usize, host: &HostClock) -> CycleResult {
    let cycle_start = host.on_cpu_ns();
    let mut config = ScfsConfig::test(Mode::Blocking);
    config.metadata_cache_expiry = SimDuration::ZERO;
    let env = Env::aws(seed, CoordKind::ShardedMetro { shards: SHARDS }, traced);
    let mut engine = Engine::new(env, config.clone(), seed);
    let ops = scaled(OPS_PER_MOUNT, divisor, 10);
    let mut members = Vec::new();
    let populate = |engine: &mut Engine, mount: usize, dir: &str| {
        for file in 0..FILES_PER_DIR {
            let data = engine.mounts[mount].rng.bytes(FILE_LEN);
            engine.populate_file(mount, &file_path(dir, file), data);
        }
    };
    for user in 0..HOME_MOUNTS {
        let account = engine.add_account(format!("u{user:04}"));
        let mount = engine.add_mount(account, config.clone(), ops);
        let dir = format!("/h{user:04}");
        engine.populate_dir(mount, &dir);
        populate(&mut engine, mount, &dir);
        members.push(Member {
            dir,
            tag: String::new(),
            own_file: 0,
            made: Vec::new(),
            next_name: 0,
        });
    }
    for team in 0..TEAM_DIRS {
        let account = engine.add_account(format!("team{team:02}"));
        let dir = format!("/team{team:02}");
        for rank in 0..MOUNTS_PER_TEAM {
            let mount = engine.add_mount(account, config.clone(), ops);
            if rank == 0 {
                // One creator per account (see `smallfile_fleet`): rank 0
                // writes every team file; rank r later edits file r.
                engine.populate_dir(mount, &dir);
                populate(&mut engine, mount, &dir);
            }
            members.push(Member {
                dir: dir.clone(),
                tag: format!("m{rank}"),
                own_file: rank,
                made: Vec::new(),
                next_name: 0,
            });
        }
    }
    engine.align_start(THINK_MEAN_NS as u64);
    let mut script = Storm { members };
    engine.run(&mut script, host, cycle_start);
    engine.finish()
}
