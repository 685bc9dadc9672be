//! The closed-loop driver: one process, one thread, many simulated mounts.
//!
//! An [`Engine`] owns one freshly built deployment, its mounts and the
//! shadow model. Mounts are interleaved by a virtual-time event heap keyed
//! by `(instant, mount)`: the mount whose clock is earliest issues its next
//! operation, waits for it (closed loop), thinks, and re-enters the heap.
//! Every `FileSystem` call is bracketed (a root span when tracing), every
//! result is checked against the shadow model, and every operation feeds the
//! op-trace hash. The first tenth of the operation sequence is warm-up:
//! executed and checked, but not sampled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use scfs::agent::ScfsAgent;
use scfs::config::ScfsConfig;
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::{FileType, OpenFlags};
use sim_core::time::{SimDuration, SimInstant};

use crate::env::{CloudTotals, Env};
use crate::hostclock::HostClock;
use crate::rng::{derive_seed, Rng};
use crate::shadow::{checksum, fnv1a, Node, Shadow, Window, FNV_OFFSET};
use crate::stats::Samples;
use crate::trace::{self, Layer};

/// Latency classes the end-to-end metrics are taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `close` of a dirty handle, until the commit the mode promises.
    Close,
    /// open + one range read, until the bytes are in the caller's buffer.
    Read,
    /// `stat` of an existing path.
    Stat,
    /// `mkdir` and `rename`: the write lane of the metadata plane.
    MdWrite,
}

/// One benchmark operation (a short, fixed sequence of syscalls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `stat(path)`.
    Stat {
        /// Path to stat.
        path: String,
    },
    /// open, one `read(offset, len)`, close.
    ReadRange {
        /// File to read.
        path: String,
        /// Start of the range.
        offset: u64,
        /// Length of the range (clipped to the file).
        len: usize,
    },
    /// open, sequential `read`s of `call` bytes to the end, close.
    ReadSeq {
        /// File to read.
        path: String,
        /// Bytes per `read` call.
        call: usize,
    },
    /// open read-write, overwrite `len` random bytes at `offset`, close.
    Overwrite {
        /// File to edit.
        path: String,
        /// Where to write.
        offset: u64,
        /// How many bytes.
        len: usize,
    },
    /// open read-write, insert `len` bytes at `offset` (read the tail, write
    /// the new bytes and the tail back), close.
    Insert {
        /// File to edit.
        path: String,
        /// Where to insert.
        offset: u64,
        /// How many bytes.
        len: usize,
    },
    /// open read-write, append `len` bytes, close.
    Append {
        /// File to edit.
        path: String,
        /// How many bytes.
        len: usize,
    },
    /// create + write `len` bytes + close.
    Create {
        /// File to create.
        path: String,
        /// Its size.
        len: usize,
    },
    /// `unlink(path)`.
    Unlink {
        /// File to remove.
        path: String,
    },
    /// `mkdir(path)`.
    Mkdir {
        /// Directory to create.
        path: String,
    },
    /// `rename(from, to)`.
    Rename {
        /// Old path.
        from: String,
        /// New path.
        to: String,
    },
    /// `readdir(path)`.
    Readdir {
        /// Directory to list.
        path: String,
    },
}

impl Op {
    /// Stable code (for the op-trace hash) and name (for spans and reports).
    pub fn kind(&self) -> (u8, &'static str) {
        match self {
            Op::Stat { .. } => (1, "stat"),
            Op::ReadRange { .. } => (2, "read_range"),
            Op::ReadSeq { .. } => (3, "read_seq"),
            Op::Overwrite { .. } => (4, "overwrite"),
            Op::Insert { .. } => (5, "insert"),
            Op::Append { .. } => (6, "append"),
            Op::Create { .. } => (7, "create"),
            Op::Unlink { .. } => (8, "unlink"),
            Op::Mkdir { .. } => (9, "mkdir"),
            Op::Rename { .. } => (10, "rename"),
            Op::Readdir { .. } => (11, "readdir"),
        }
    }

    /// The path the operation acts on (the source, for a rename).
    pub fn path(&self) -> &str {
        match self {
            Op::Stat { path }
            | Op::ReadRange { path, .. }
            | Op::ReadSeq { path, .. }
            | Op::Overwrite { path, .. }
            | Op::Insert { path, .. }
            | Op::Append { path, .. }
            | Op::Create { path, .. }
            | Op::Unlink { path }
            | Op::Mkdir { path }
            | Op::Readdir { path } => path,
            Op::Rename { from, .. } => from,
        }
    }
}

/// A workload's per-mount behaviour: what to do next and how long to think.
pub trait Script {
    /// Chooses mount `mount`'s next operation. All randomness comes from
    /// `rng`, the mount's own stream.
    fn next_op(&mut self, mount: usize, rng: &mut Rng, shadow: &Shadow) -> Op;

    /// Think time after an operation, in virtual nanoseconds.
    fn think_ns(&mut self, mount: usize, rng: &mut Rng) -> u64;
}

/// One simulated client.
pub struct Mount {
    /// The mounted agent.
    pub agent: ScfsAgent,
    /// The mount's private random stream.
    pub rng: Rng,
    /// Operations it still has to issue.
    pub remaining: usize,
    /// Index of its account in [`Engine::accounts`].
    pub account: usize,
}

/// Counters read from the agents' public stats at the timed-phase
/// boundaries, summed over all mounts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `AgentStats::syscalls`.
    pub agent_syscalls: u64,
    /// `AgentStats::anchor_retries`.
    pub anchor_retries: u64,
    /// `AgentStats::backpressure_stalls`.
    pub backpressure_stalls: u64,
    /// `AgentStats::transfer_waves`.
    pub transfer_waves: u64,
    /// `AgentStats::chunk_uploads`.
    pub chunk_uploads: u64,
    /// `AgentStats::chunk_downloads`.
    pub chunk_downloads: u64,
    /// `AgentStats::bytes_downloaded`.
    pub bytes_downloaded: u64,
    /// `AgentStats::prefetched_chunks`.
    pub prefetched_chunks: u64,
    /// `AgentStats::range_reads`.
    pub range_reads: u64,
    /// `AgentStats::dedup_hits_cross_file`.
    pub dedup_hits: u64,
    /// `AgentStats::gc_runs`.
    pub gc_runs: u64,
    /// `AgentStats::gc_reclaimed_versions`.
    pub gc_reclaimed_versions: u64,
    /// `AgentStats::gc_errors`.
    pub gc_errors: u64,
    /// `AgentStats::gc_retried`.
    pub gc_retried: u64,
    /// Memory-tier hits.
    pub mem_hits: u64,
    /// Memory-tier misses.
    pub mem_misses: u64,
    /// Disk-tier hits.
    pub disk_hits: u64,
    /// Disk-tier misses.
    pub disk_misses: u64,
    /// Bytes served by either tier.
    pub cache_bytes_hit: u64,
    /// Evictions of both tiers.
    pub evictions: u64,
    /// Memory → disk demotions.
    pub demotions: u64,
    /// Disk → memory promotions.
    pub promotions: u64,
    /// Replacement-policy bookkeeping steps of both tiers.
    pub policy_steps: u64,
}

macro_rules! for_each_counter {
    ($a:expr, $b:expr, $op:tt) => {
        for_each_counter!(@fields $a, $b, $op;
            agent_syscalls, anchor_retries, backpressure_stalls, transfer_waves,
            chunk_uploads, chunk_downloads, bytes_downloaded, prefetched_chunks,
            range_reads, dedup_hits, gc_runs, gc_reclaimed_versions, gc_errors,
            gc_retried, mem_hits, mem_misses, disk_hits, disk_misses,
            cache_bytes_hit, evictions, demotions, promotions, policy_steps)
    };
    (@fields $a:expr, $b:expr, $op:tt; $($f:ident),*) => {
        $( $a.$f $op $b.$f; )*
    };
}

impl Counters {
    /// Reads one agent's public counters.
    fn of(agent: &ScfsAgent) -> Counters {
        let s = agent.stats();
        let c = agent.cache_stats();
        Counters {
            agent_syscalls: s.syscalls,
            anchor_retries: s.anchor_retries,
            backpressure_stalls: s.backpressure_stalls,
            transfer_waves: s.transfer_waves,
            chunk_uploads: s.chunk_uploads,
            chunk_downloads: s.chunk_downloads,
            bytes_downloaded: s.bytes_downloaded,
            prefetched_chunks: s.prefetched_chunks,
            range_reads: s.range_reads,
            dedup_hits: s.dedup_hits_cross_file,
            gc_runs: s.gc_runs,
            gc_reclaimed_versions: s.gc_reclaimed_versions,
            gc_errors: s.gc_errors,
            gc_retried: s.gc_retried,
            mem_hits: c.memory.hits,
            mem_misses: c.memory.misses,
            disk_hits: c.disk.hits,
            disk_misses: c.disk.misses,
            cache_bytes_hit: c.memory.bytes_hit + c.disk.bytes_hit,
            evictions: c.memory.evictions + c.disk.evictions,
            demotions: c.demotions,
            promotions: c.promotions,
            policy_steps: c.memory.policy_steps + c.disk.policy_steps,
        }
    }

    /// Field-wise `self += other`.
    pub fn add(&mut self, other: &Counters) {
        for_each_counter!(self, other, +=);
    }

    /// Field-wise `self -= other`.
    pub fn sub(&mut self, other: &Counters) {
        for_each_counter!(self, other, -=);
    }
}

/// What one cycle (one fresh deployment, one seeded op sequence) measured.
#[derive(Debug, Clone, Default)]
pub struct CycleResult {
    /// Dirty-close latencies.
    pub close: Samples,
    /// Read latencies.
    pub read: Samples,
    /// Stat latencies.
    pub stat: Samples,
    /// mkdir/rename latencies.
    pub mdwrite: Samples,
    /// Timed operations that completed.
    pub timed_ops: u64,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored or were refused.
    pub failed: u64,
    /// Of those, refusals by a held write lock.
    pub lock_conflicts: u64,
    /// Output-check violations (first few, as text). Empty = correct.
    pub problems: Vec<String>,
    /// Virtual makespan of the timed phase, ns.
    pub makespan_ns: u64,
    /// Bytes the application wrote + read in the timed phase.
    pub user_bytes: u64,
    /// Bytes the application wrote in the timed phase.
    pub user_written: u64,
    /// Sum of file lengths at each dirty close of the timed phase.
    pub rechunked_bytes: u64,
    /// `FileSystem` calls issued in the timed phase.
    pub syscalls: u64,
    /// Cloud counters over the timed phase.
    pub cloud: CloudTotals,
    /// Coordination-plane accesses over the timed phase.
    pub coord_accesses: u64,
    /// Agent and cache counters over the timed phase.
    pub counters: Counters,
    /// Bytes stored at the clouds at the end.
    pub stored_bytes: u64,
    /// Sum of live file lengths at the end.
    pub live_bytes: u64,
    /// Release-journal entries still pending at the end.
    pub pending_releases: u64,
    /// Orphaned blobs at the end (must be 0).
    pub orphans: u64,
    /// On-CPU time of the timed phase, ns.
    pub host_timed_ns: u64,
    /// Wall time of the timed phase, ns.
    pub wall_timed_ns: u64,
    /// On-CPU time from cycle start to the first timed operation, ns.
    pub setup_ns: u64,
    /// FNV-1a over every `(mount, op, path, virtual start, virtual end)`.
    pub hash: u64,
}

const MAX_PROBLEMS: usize = 16;

#[derive(Default)]
struct Done {
    class: Option<Class>,
    latency_ns: u64,
    read_bytes: u64,
    written_bytes: u64,
}

/// One deployment under load.
pub struct Engine {
    /// The deployment.
    pub env: Env,
    /// Account names; mounts and files refer to them by index.
    pub accounts: Vec<String>,
    /// The simulated clients.
    pub mounts: Vec<Mount>,
    /// What the file system must contain.
    pub shadow: Shadow,
    seed: u64,
    verify_config: ScfsConfig,
    /// Earliest virtual instant any future operation can start at: the heap
    /// key of the operation being executed.
    floor: u64,
    timed: bool,
    timed_start: Option<TimedStart>,
    out: CycleResult,
}

struct TimedStart {
    virt_ns: u64,
    cpu_ns: u64,
    wall_ns: u64,
    cloud: CloudTotals,
    coord_accesses: u64,
    counters: Counters,
}

/// Brackets one `FileSystem` call: counts it and records the root span.
fn sys<T>(
    agent: &mut ScfsAgent,
    syscalls: &mut u64,
    name: &'static str,
    call: impl FnOnce(&mut ScfsAgent) -> Result<T, ScfsError>,
) -> Result<T, ScfsError> {
    *syscalls += 1;
    let span = trace::begin(Layer::Agent, name, agent.now().as_nanos());
    let result = call(agent);
    trace::end(span, agent.now().as_nanos(), 0, result.is_ok());
    result
}

impl Engine {
    /// A driver over `env`. `verify_config` is the agent configuration the
    /// end-of-cycle verifier mounts use.
    pub fn new(env: Env, verify_config: ScfsConfig, seed: u64) -> Engine {
        Engine {
            env,
            accounts: Vec::new(),
            mounts: Vec::new(),
            shadow: Shadow::default(),
            seed,
            verify_config,
            floor: 0,
            timed: false,
            timed_start: None,
            out: CycleResult {
                hash: FNV_OFFSET,
                ..CycleResult::default()
            },
        }
    }

    /// Registers an account and returns its index.
    pub fn add_account(&mut self, name: String) -> usize {
        self.accounts.push(name);
        self.accounts.len() - 1
    }

    /// Mounts a client of `account` that will issue `ops` operations.
    pub fn add_mount(&mut self, account: usize, config: ScfsConfig, ops: usize) -> usize {
        let index = self.mounts.len();
        let agent = self.env.mount(
            &self.accounts[account],
            config,
            derive_seed(self.seed, 0x4000 + index as u64),
        );
        self.mounts.push(Mount {
            agent,
            rng: Rng::new(derive_seed(self.seed, 0x8000 + index as u64)),
            remaining: ops,
            account,
        });
        index
    }

    /// Writes a file during set-up (unmeasured) and records it in the model.
    pub fn populate_file(&mut self, mount: usize, path: &str, data: Vec<u8>) {
        let m = &mut self.mounts[mount];
        if let Err(e) = m.agent.write_file(path, &data) {
            self.problem(format!("populate {path}: {e}"));
        }
        self.shadow
            .put_file(path, data, self.mounts[mount].account, Window::SETTLED, 0);
    }

    /// Creates a directory during set-up and records it in the model.
    pub fn populate_dir(&mut self, mount: usize, path: &str) {
        if let Err(e) = self.mounts[mount].agent.mkdir(path) {
            self.problem(format!("populate mkdir {path}: {e}"));
        }
        self.shadow.put_dir(path, Window::SETTLED, 0);
    }

    /// Moves every mount past the last set-up commit (foreground and
    /// background) plus a margin, then staggers arrivals exponentially.
    pub fn align_start(&mut self, stagger_mean_ns: u64) {
        let epoch = self
            .mounts
            .iter()
            .map(|m| m.agent.now().max(m.agent.background_drain_instant()))
            .fold(SimInstant::EPOCH, SimInstant::max)
            + SimDuration::from_secs(2);
        for m in &mut self.mounts {
            let stagger = if stagger_mean_ns == 0 {
                0
            } else {
                m.rng.exponential(stagger_mean_ns as f64) as u64
            };
            let wait = epoch.duration_since(m.agent.now()) + SimDuration(stagger);
            m.agent.sleep(wait);
        }
    }

    fn problem(&mut self, what: String) {
        if self.out.problems.len() < MAX_PROBLEMS {
            self.out.problems.push(what);
        }
    }

    /// Runs every mount's operations to completion. `cycle_start_cpu` is the
    /// on-CPU reading taken before the deployment was built: set-up time
    /// runs from there to the first timed operation.
    pub fn run(&mut self, script: &mut dyn Script, host: &HostClock, cycle_start_cpu: u64) {
        let total: usize = self.mounts.iter().map(|m| m.remaining).sum();
        let warmup = total / 10;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = self
            .mounts
            .iter()
            .enumerate()
            .filter(|(_, m)| m.remaining > 0)
            .map(|(i, m)| Reverse((m.agent.now().as_nanos(), i)))
            .collect();
        let mut executed = 0usize;
        while let Some(Reverse((at, index))) = heap.pop() {
            self.floor = at;
            if executed == warmup {
                self.begin_timed(host, at, cycle_start_cpu);
            }
            executed += 1;
            let op = {
                let Engine { mounts, shadow, .. } = &mut *self;
                script.next_op(index, &mut mounts[index].rng, shadow)
            };
            self.execute(index, &op);
            let m = &mut self.mounts[index];
            m.remaining -= 1;
            if m.remaining > 0 {
                let think = script.think_ns(index, &mut m.rng);
                m.agent.sleep(SimDuration(think));
                heap.push(Reverse((m.agent.now().as_nanos(), index)));
            }
        }
        self.end_timed(host);
    }

    fn begin_timed(&mut self, host: &HostClock, virt_ns: u64, cycle_start_cpu: u64) {
        let mut counters = Counters::default();
        for m in &self.mounts {
            counters.add(&Counters::of(&m.agent));
        }
        let cpu_ns = host.on_cpu_ns();
        self.out.setup_ns = cpu_ns.saturating_sub(cycle_start_cpu);
        // Only the timed phase's FileSystem calls are counted.
        self.out.syscalls = 0;
        self.timed_start = Some(TimedStart {
            virt_ns,
            cpu_ns,
            wall_ns: host.wall_ns(),
            cloud: self.env.cloud_totals(),
            coord_accesses: self.env.coord_accesses(),
            counters,
        });
        self.timed = true;
        trace::set_active(true);
    }

    fn end_timed(&mut self, host: &HostClock) {
        trace::set_active(false);
        self.timed = false;
        let Some(start) = self.timed_start.take() else {
            return;
        };
        self.out.host_timed_ns = host.on_cpu_ns().saturating_sub(start.cpu_ns);
        self.out.wall_timed_ns = host.wall_ns().saturating_sub(start.wall_ns);
        let end_virt = self
            .mounts
            .iter()
            .map(|m| m.agent.now().as_nanos())
            .max()
            .unwrap_or(start.virt_ns);
        self.out.makespan_ns = end_virt.saturating_sub(start.virt_ns);
        self.out.cloud = self.env.cloud_totals().since(&start.cloud);
        self.out.coord_accesses = self.env.coord_accesses() - start.coord_accesses;
        let mut counters = Counters::default();
        for m in &self.mounts {
            counters.add(&Counters::of(&m.agent));
        }
        counters.sub(&start.counters);
        self.out.counters = counters;
    }

    fn execute(&mut self, index: usize, op: &Op) {
        let (code, name) = op.kind();
        let t0 = self.mounts[index].agent.now().as_nanos();
        if self.timed {
            self.out.attempted += 1;
        }
        trace::begin_op(index, name);
        let result = self.perform(index, op);
        trace::end_op();
        let t1 = self.mounts[index].agent.now().as_nanos();
        let mut h = self.out.hash;
        h = fnv1a(h, &(index as u64).to_le_bytes());
        h = fnv1a(h, &[code]);
        h = fnv1a(h, op.path().as_bytes());
        h = fnv1a(h, &t0.to_le_bytes());
        h = fnv1a(h, &t1.to_le_bytes());
        self.out.hash = h;
        match result {
            Ok(done) if self.timed => {
                self.out.timed_ops += 1;
                self.out.user_bytes += done.read_bytes + done.written_bytes;
                self.out.user_written += done.written_bytes;
                let samples = match done.class {
                    Some(Class::Close) => Some(&mut self.out.close),
                    Some(Class::Read) => Some(&mut self.out.read),
                    Some(Class::Stat) => Some(&mut self.out.stat),
                    Some(Class::MdWrite) => Some(&mut self.out.mdwrite),
                    None => None,
                };
                if let Some(s) = samples {
                    s.push(done.latency_ns);
                }
            }
            Ok(_) => {}
            Err(e) => {
                if self.timed {
                    self.out.failed += 1;
                }
                if matches!(e, ScfsError::Locked { .. }) {
                    // A refusal, not a wrong answer: counted, never sampled.
                    self.out.lock_conflicts += u64::from(self.timed);
                } else {
                    self.problem(format!("mount {index} {name} {}: {e}", op.path()));
                }
            }
        }
    }

    /// Whether other mounts may still observe a version its writer replaced.
    fn shared(&self) -> bool {
        self.mounts.len() > 1
    }

    /// Checks one `read(offset, requested)` that returned `got` on a handle
    /// whose open spanned `open`: some version observable through that open
    /// must hold exactly these bytes (and end where the read ended).
    /// `consistent` carries the versions earlier reads of the same handle
    /// already matched: all reads of one handle see one version.
    fn check_read(
        &mut self,
        path: &str,
        open: Window,
        offset: u64,
        requested: usize,
        got: &[u8],
        consistent: &mut Option<Vec<Window>>,
    ) {
        let Some(file) = self.shadow.file(path) else {
            self.problem(format!("read of {path}: not in the model"));
            return;
        };
        let matching: Vec<Window> = file
            .observable(open)
            .filter(|v| consistent.as_ref().is_none_or(|c| c.contains(&v.at)))
            .filter(|v| {
                let start = (offset as usize).min(v.data.len());
                let end = (start + requested).min(v.data.len());
                v.data[start..end] == *got
            })
            .map(|v| v.at)
            .collect();
        if matching.is_empty() {
            let latest = file.latest();
            let start = (offset as usize).min(latest.len());
            let end = (start + requested).min(latest.len());
            let report = format!(
                "read of {path}@{offset}+{requested}: got {} bytes {:016x}, latest version \
                 has {} bytes {:016x}, {} versions observable",
                got.len(),
                checksum(got),
                end - start,
                checksum(&latest[start..end]),
                file.observable(open).count()
            );
            self.problem(report);
        }
        *consistent = Some(matching);
    }

    fn perform(&mut self, index: usize, op: &Op) -> Result<Done, ScfsError> {
        // Split borrows: the agent, the model and the counters are disjoint.
        let floor = self.floor;
        match op {
            Op::Stat { path } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now();
                let md = sys(agent, &mut self.out.syscalls, "stat", |a| a.stat(path))?;
                let latency_ns = agent.now().duration_since(t0).0;
                // Sizes only change on files a single mount uses, so the
                // latest length is the only observable one.
                let wrong = match self.shadow.get(path) {
                    Some(Node::File(f)) => {
                        md.file_type != FileType::File || md.size != f.latest().len() as u64
                    }
                    Some(Node::Dir) => md.file_type != FileType::Directory,
                    None => true,
                };
                if wrong {
                    self.problem(format!(
                        "stat {path}: {:?} of {} bytes disagrees with the model",
                        md.file_type, md.size
                    ));
                }
                Ok(Done {
                    class: Some(Class::Stat),
                    latency_ns,
                    ..Done::default()
                })
            }
            Op::ReadRange { path, offset, len } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now();
                let h = sys(agent, &mut self.out.syscalls, "open", |a| {
                    a.open(path, OpenFlags::read_only())
                })?;
                let open = Window {
                    lo: t0.as_nanos(),
                    hi: agent.now().as_nanos(),
                };
                let data = sys(agent, &mut self.out.syscalls, "read", |a| {
                    a.read(h, *offset, *len)
                })?;
                let latency_ns = agent.now().duration_since(t0).0;
                sys(agent, &mut self.out.syscalls, "close", |a| a.close(h))?;
                self.check_read(path, open, *offset, *len, &data, &mut None);
                Ok(Done {
                    class: Some(Class::Read),
                    latency_ns,
                    read_bytes: data.len() as u64,
                    written_bytes: 0,
                })
            }
            Op::ReadSeq { path, call } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now();
                let h = sys(agent, &mut self.out.syscalls, "open", |a| {
                    a.open(path, OpenFlags::read_only())
                })?;
                let open = Window {
                    lo: t0.as_nanos(),
                    hi: agent.now().as_nanos(),
                };
                let mut consistent = None;
                let mut offset = 0u64;
                loop {
                    let agent = &mut self.mounts[index].agent;
                    let data = sys(agent, &mut self.out.syscalls, "read", |a| {
                        a.read(h, offset, *call)
                    })?;
                    self.check_read(path, open, offset, *call, &data, &mut consistent);
                    offset += data.len() as u64;
                    if data.len() < *call {
                        break;
                    }
                }
                let agent = &mut self.mounts[index].agent;
                sys(agent, &mut self.out.syscalls, "close", |a| a.close(h))?;
                // Not sampled into the read class: a whole-file read is tens
                // of times a range read, and one latency distribution over
                // both has a tail that flips between their modes from seed
                // to seed. It still counts in ops, bytes, cost and host time.
                Ok(Done {
                    class: None,
                    latency_ns: 0,
                    read_bytes: offset,
                    written_bytes: 0,
                })
            }
            Op::Overwrite { path, offset, len } => {
                let payload = self.mounts[index].rng.bytes(*len);
                self.commit(
                    index,
                    path,
                    OpenFlags::read_write(),
                    *offset,
                    &payload,
                    None,
                )
            }
            Op::Append { path, len } => {
                let payload = self.mounts[index].rng.bytes(*len);
                let end = self.shadow.len_of(path);
                self.commit(index, path, OpenFlags::read_write(), end, &payload, None)
            }
            Op::Insert { path, offset, len } => {
                let payload = self.mounts[index].rng.bytes(*len);
                let tail = self.shadow.len_of(path).saturating_sub(*offset) as usize;
                self.commit(
                    index,
                    path,
                    OpenFlags::read_write(),
                    *offset,
                    &payload,
                    Some(tail),
                )
            }
            Op::Create { path, len } => {
                let payload = self.mounts[index].rng.bytes(*len);
                self.commit(index, path, OpenFlags::create_truncate(), 0, &payload, None)
            }
            Op::Unlink { path } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now().as_nanos();
                sys(agent, &mut self.out.syscalls, "unlink", |a| a.unlink(path))?;
                let at = Window {
                    lo: t0,
                    hi: agent.now().as_nanos(),
                };
                self.shadow.remove(path, at, floor);
                Ok(Done::default())
            }
            Op::Mkdir { path } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now();
                sys(agent, &mut self.out.syscalls, "mkdir", |a| a.mkdir(path))?;
                let t1 = agent.now();
                let at = Window {
                    lo: t0.as_nanos(),
                    hi: t1.as_nanos(),
                };
                self.shadow.put_dir(path, at, floor);
                Ok(Done {
                    class: Some(Class::MdWrite),
                    latency_ns: t1.duration_since(t0).0,
                    ..Done::default()
                })
            }
            Op::Rename { from, to } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now();
                sys(agent, &mut self.out.syscalls, "rename", |a| {
                    a.rename(from, to)
                })?;
                let t1 = agent.now();
                let at = Window {
                    lo: t0.as_nanos(),
                    hi: t1.as_nanos(),
                };
                self.shadow.rename(from, to, at, floor);
                Ok(Done {
                    class: Some(Class::MdWrite),
                    latency_ns: t1.duration_since(t0).0,
                    ..Done::default()
                })
            }
            Op::Readdir { path } => {
                let agent = &mut self.mounts[index].agent;
                let t0 = agent.now().as_nanos();
                let listing = sys(agent, &mut self.out.syscalls, "readdir", |a| {
                    a.readdir(path)
                })?;
                let call = Window {
                    lo: t0,
                    hi: agent.now().as_nanos(),
                };
                let (min, max) = self.shadow.child_count_range(path, call);
                if !(min..=max).contains(&listing.len()) {
                    self.problem(format!(
                        "readdir {path}: {} entries, model allows {min}..={max}",
                        listing.len()
                    ));
                }
                Ok(Done::default())
            }
        }
    }

    /// The write path shared by overwrite, append, insert and create: open,
    /// (for an insert: read the tail back), write, close. The close is the
    /// sampled call. `tail` is `Some(len)` for an insert. Only a file's one
    /// writer gets here, so what it reads back is the latest version.
    fn commit(
        &mut self,
        index: usize,
        path: &str,
        flags: OpenFlags,
        offset: u64,
        payload: &[u8],
        tail: Option<usize>,
    ) -> Result<Done, ScfsError> {
        let (account, floor, shared) = (self.mounts[index].account, self.floor, self.shared());
        let agent = &mut self.mounts[index].agent;
        let t_open = agent.now().as_nanos();
        let h = sys(agent, &mut self.out.syscalls, "open", |a| {
            a.open(path, flags)
        })?;
        if flags.truncate {
            // The (empty) file exists from the open on; its content commits
            // with the close.
            let at = Window {
                lo: t_open,
                hi: agent.now().as_nanos(),
            };
            self.shadow.put_file(path, Vec::new(), account, at, floor);
        }
        let mut read_bytes = 0u64;
        let mut buffer = payload.to_vec();
        if let Some(tail_len) = tail {
            let agent = &mut self.mounts[index].agent;
            let tail = sys(agent, &mut self.out.syscalls, "read", |a| {
                a.read(h, offset, tail_len)
            })?;
            read_bytes = tail.len() as u64;
            let latest = self.shadow.file(path).map_or(&[][..], |f| f.latest());
            let start = (offset as usize).min(latest.len());
            if latest[start..] != *tail {
                self.problem(format!("read-back of the tail of {path}@{offset} differs"));
            }
            buffer.extend_from_slice(&tail);
        }
        let agent = &mut self.mounts[index].agent;
        let written = sys(agent, &mut self.out.syscalls, "write", |a| {
            a.write(h, offset, &buffer)
        })?;
        if written != buffer.len() {
            self.problem(format!("write to {path}: {written} of {}", buffer.len()));
        }
        let agent = &mut self.mounts[index].agent;
        let t0 = agent.now();
        sys(agent, &mut self.out.syscalls, "close", |a| a.close(h))?;
        let t1 = agent.now();
        // The model mirrors the same bytes at the same offset, committed
        // somewhere inside the close.
        let at = Window {
            lo: t0.as_nanos(),
            hi: t1.as_nanos(),
        };
        let new_len = self.shadow.commit(path, at, floor, shared, |data| {
            let start = offset as usize;
            let end = start + buffer.len();
            if data.len() < end {
                data.resize(end, 0);
            }
            data[start..end].copy_from_slice(&buffer);
        });
        if self.timed {
            self.out.rechunked_bytes += new_len.unwrap_or(0);
        }
        Ok(Done {
            class: Some(Class::Close),
            latency_ns: t1.duration_since(t0).0,
            read_bytes,
            written_bytes: buffer.len() as u64,
        })
    }

    /// Ends the cycle: a fresh mount per account reads every live file back
    /// from a cold cache and compares it with the model; then the clouds'
    /// raw key listings are audited for orphaned blobs.
    pub fn finish(mut self) -> CycleResult {
        let end = self
            .mounts
            .iter()
            .map(|m| m.agent.now().max(m.agent.background_drain_instant()))
            .fold(SimInstant::EPOCH, SimInstant::max)
            + SimDuration::from_secs(2);
        let mut problems = Vec::new();
        let mut verifier: Option<(usize, ScfsAgent)> = None;
        let mut files: Vec<(&String, &crate::shadow::ShadowFile)> = self.shadow.files().collect();
        files.sort_by_key(|(path, f)| (f.account, path.as_str()));
        for (path, file) in files {
            if verifier.as_ref().map(|(a, _)| *a) != Some(file.account) {
                let mut agent = self.env.mount(
                    &self.accounts[file.account],
                    self.verify_config.clone(),
                    derive_seed(self.seed, 0xF000 + file.account as u64),
                );
                agent.sleep(end.duration_since(agent.now()));
                verifier = Some((file.account, agent));
            }
            let Some((_, agent)) = verifier.as_mut() else {
                continue;
            };
            match agent.read_file(path) {
                Ok(data) if data == file.latest() => {}
                Ok(data) => problems.push(format!(
                    "read-back of {path}: {} bytes {:016x}, model {} bytes {:016x}",
                    data.len(),
                    checksum(&data),
                    file.latest().len(),
                    checksum(file.latest())
                )),
                Err(e) => problems.push(format!("read-back of {path}: {e}")),
            }
        }
        let orphans = self.env.orphans();
        if let Some(first) = orphans.first() {
            problems.push(format!("{} orphaned blobs, e.g. {first}", orphans.len()));
        }
        for p in problems {
            self.problem(p);
        }
        self.out.orphans = orphans.len() as u64;
        self.out.pending_releases = self.env.pending_releases() as u64;
        self.out.stored_bytes = self.env.stored_bytes();
        self.out.live_bytes = self.shadow.live_bytes();
        self.out
    }
}
