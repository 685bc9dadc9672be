//! `smallfile_fleet`: many users, small shared files, one cloud.
//!
//! 600 mounts in 60 teams on the AWS backend (one S3 cloud, one coordination
//! instance in EC2), blocking mode, the paper's defaults (500 ms metadata
//! cache, syscall overhead on), fixed chunking. Files are 4–64 KiB, so every
//! close is one chunk PUT and one manifest PUT plus lock and metadata
//! updates: per-request latency, coordination calls and cache policy
//! dominate, bytes do not. Chunking or crypto speed-ups should move nothing
//! here; small-file packing or fewer coordination calls per close should.
//!
//! Two rules keep every operation successful. **One writer per file**: a
//! shared file is only ever edited by the mount of rank `file % 10`, so no
//! open meets a held write lock. **One creator per account**: the agent
//! names storage objects `{account}-f{n}` from a per-mount counter, so two
//! mounts of one account that both create files hand out the same storage id
//! to different files (they then share a lock, a version list and a GC
//! horizon). Until the program fixes that, only a team's lead (rank 0)
//! creates and unlinks files; the other ranks read, stat, edit and make
//! directories, which carry no storage id.

use scfs::config::{Mode, ScfsConfig};
use sim_core::units::Bytes;

use super::scaled;
use crate::driver::{CycleResult, Engine, Op, Script};
use crate::env::{CoordKind, Env};
use crate::hostclock::HostClock;
use crate::rng::{weighted, Rng, Zipf};
use crate::shadow::Shadow;

/// 60 teams of 10 mounts (the issue's 150 x 10 scaled to the run budget).
const TEAMS: usize = 60;
const MOUNTS_PER_TEAM: usize = 10;
/// 64 shared files per team, sizes log-uniform in 4–64 KiB (mean ~21.6 KiB,
/// ~1.35 MiB per team).
const FILES_PER_TEAM: usize = 64;
const MIN_LEN: u64 = 4 << 10;
const MAX_LEN: u64 = 64 << 10;
/// Per-mount cache tiers: 1/8 and 1/2 of a team's bytes, so the zipfian head
/// lives in memory, the body on disk and the tail in the cloud.
const MEMORY_CACHE: Bytes = Bytes::kib(176);
const DISK_CACHE: Bytes = Bytes::kib(704);
/// The classic YCSB skew.
const ZIPF_THETA: f64 = 0.99;
/// Operations per mount per cycle: 24 000 per cycle, 96 000 per run.
const OPS_PER_MOUNT: usize = 40;
/// GC after 64 KiB written per mount (the default scaled to the file size):
/// a mount that edits collects every three or four closes.
const GC_THRESHOLD: Bytes = Bytes::kib(64);
/// Think time: 1 s floor plus an exponential of mean 19 s (mean 20 s). The
/// floor exceeds the 500 ms metadata cache, so no operation starts on
/// metadata cached by the previous one and the shadow model is exact.
const THINK_FLOOR_NS: u64 = 1_000_000_000;
const THINK_EXP_MEAN_NS: f64 = 19e9;

/// read, stat, edit, create, unlink, metadata write — for the nine members
/// of a team, and for its lead, who does all of the team's creating and
/// unlinking. Fleet-wide: 60 % read, 14.5 % stat, 17.6 % edit, 2.5 % create,
/// 1.2 % unlink, 4.2 % metadata write.
const MEMBER_MIX: [f64; 6] = [0.62, 0.15, 0.19, 0.0, 0.0, 0.04];
const LEAD_MIX: [f64; 6] = [0.42, 0.10, 0.05, 0.25, 0.12, 0.06];

/// Per-mount state of the script.
#[derive(Default)]
struct Member {
    /// Files this mount created and has not unlinked.
    created: Vec<String>,
    /// Directories this mount made and has not renamed.
    made: Vec<String>,
    next_name: usize,
}

struct Fleet {
    zipf: Zipf,
    /// Zipf over the files one mount may edit (every tenth file of its team:
    /// one writer per file, so no close ever meets a held lock).
    own: Zipf,
    members: Vec<Member>,
}

fn shared_path(team: usize, file: usize) -> String {
    format!("/t{team:03}/shared/f{file:03}")
}

fn home(team: usize, rank: usize) -> String {
    format!("/t{team:03}/m{rank:02}")
}

impl Script for Fleet {
    fn next_op(&mut self, mount: usize, rng: &mut Rng, shadow: &Shadow) -> Op {
        let (team, rank) = (mount / MOUNTS_PER_TEAM, mount % MOUNTS_PER_TEAM);
        let member = &mut self.members[mount];
        let fresh = |prefix: char, member: &mut Member| {
            member.next_name += 1;
            format!("{}/{prefix}{:05}", home(team, rank), member.next_name)
        };
        let mix = if rank == 0 { &LEAD_MIX } else { &MEMBER_MIX };
        match weighted(rng, mix) {
            0 => Op::ReadRange {
                path: shared_path(team, self.zipf.sample(rng)),
                offset: 0,
                len: MAX_LEN as usize,
            },
            1 => Op::Stat {
                path: shared_path(team, self.zipf.sample(rng)),
            },
            2 => {
                // Ranks 0-3 own seven files, ranks 4-9 six: fold the overflow.
                let mut file = self.own.sample(rng) * MOUNTS_PER_TEAM + rank;
                if file >= FILES_PER_TEAM {
                    file -= MOUNTS_PER_TEAM;
                }
                let path = shared_path(team, file);
                let len = shadow.len_of(&path);
                let edit = rng.range(1024, 4096);
                Op::Overwrite {
                    offset: rng.below(len.saturating_sub(edit).max(1)),
                    len: edit as usize,
                    path,
                }
            }
            4 if !member.created.is_empty() => {
                let victim = rng.below(member.created.len() as u64) as usize;
                Op::Unlink {
                    path: member.created.swap_remove(victim),
                }
            }
            5 => match member.made.pop() {
                Some(from) => Op::Rename {
                    to: fresh('r', member),
                    from,
                },
                None => {
                    let path = fresh('d', member);
                    member.made.push(path.clone());
                    Op::Mkdir { path }
                }
            },
            // Create — also what an unlink with nothing to unlink becomes.
            _ => {
                let path = fresh('n', member);
                member.created.push(path.clone());
                Op::Create {
                    path,
                    len: rng.log_uniform(MIN_LEN, MAX_LEN) as usize,
                }
            }
        }
    }

    fn think_ns(&mut self, _mount: usize, rng: &mut Rng) -> u64 {
        THINK_FLOOR_NS + rng.exponential(THINK_EXP_MEAN_NS) as u64
    }
}

/// Runs one cycle.
pub fn run_cycle(seed: u64, traced: bool, divisor: usize, host: &HostClock) -> CycleResult {
    let cycle_start = host.on_cpu_ns();
    let mut config =
        ScfsConfig::paper_default(Mode::Blocking).with_cache_capacities(MEMORY_CACHE, DISK_CACHE);
    config.gc.written_bytes_threshold = GC_THRESHOLD;
    let env = Env::aws(seed, CoordKind::AwsSingleEc2, traced);
    let mut engine = Engine::new(env, config.clone(), seed);
    // The fleet keeps its shape under --smoke; each mount just does less.
    let ops = scaled(OPS_PER_MOUNT, divisor, 2);
    for team in 0..TEAMS {
        let account = engine.add_account(format!("team{team:03}"));
        let lead = engine.mounts.len();
        for _ in 0..MOUNTS_PER_TEAM {
            engine.add_mount(account, config.clone(), ops);
        }
        // The lead builds the whole tree: it is the account's one creator.
        engine.populate_dir(lead, &format!("/t{team:03}"));
        engine.populate_dir(lead, &format!("/t{team:03}/shared"));
        for rank in 0..MOUNTS_PER_TEAM {
            engine.populate_dir(lead, &home(team, rank));
        }
        for file in 0..FILES_PER_TEAM {
            let rng = &mut engine.mounts[lead].rng;
            let len = rng.log_uniform(MIN_LEN, MAX_LEN) as usize;
            let data = rng.bytes(len);
            engine.populate_file(lead, &shared_path(team, file), data);
        }
    }
    engine.align_start(THINK_EXP_MEAN_NS as u64);
    let mut script = Fleet {
        zipf: Zipf::new(FILES_PER_TEAM, ZIPF_THETA),
        own: Zipf::new(FILES_PER_TEAM.div_ceil(MOUNTS_PER_TEAM), ZIPF_THETA),
        members: (0..TEAMS * MOUNTS_PER_TEAM)
            .map(|_| Member::default())
            .collect(),
    };
    engine.run(&mut script, host, cycle_start);
    engine.finish()
}
