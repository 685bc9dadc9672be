//! Fleet-scale workload harness: thousands of simulated SCFS mounts driving
//! a zipfian, shared-directory workload on virtual time.
//!
//! The ROADMAP's north star is SCFS behaviour at the scale of a large
//! deployment — far beyond the two-client experiments of the paper's §4.
//! This harness simulates a *fleet*: `mounts` clients grouped into `teams`,
//! each team sharing one account and one shared directory of
//! `files_per_team` files. Every mount runs a deterministic arrival process
//! on its own virtual clock (exponential think times from a forked
//! [`DetRng`]) and issues a configurable read/write mix; files are chosen
//! by a zipfian popularity draw, so the head of the distribution becomes a
//! shared-directory hotspot — hot in every mount's cache, and contended by
//! writers (lock conflicts are counted, not hidden).
//!
//! The harness is event-driven: a binary heap keyed by `(virtual instant,
//! mount)` interleaves all mounts in virtual-time order, so 10⁴+ mounts run
//! in one pass without threads. There is one such loop, `drive`: staggered
//! arrivals past the population epoch, pop the earliest mount, run one
//! operation, think, push, and fold the instant into the FNV-1a trace hash.
//! The two fleets — [`run_fleet`] (data path: zipfian reads and edits) and
//! [`run_fleet_metadata`] (stat/open/mkdir/rename storms) — differ only in
//! how they populate and in the per-operation closure they hand it. Every
//! file-system call is timed into a [`sim_core::stats::OpRecorder`]
//! (p50/p99 per operation), and the per-mount [`scfs::cache::TieredStats`]
//! are aggregated into fleet-wide hit rates of the two cache tiers.
//!
//! Neither fleet builds its environment: both run on the
//! [`Deployment`] they are handed (backend, providers, coordination plane —
//! see [`crate::setup`]), and mount in the mode `cfg.scfs.mode` names.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use scfs::agent::ScfsAgent;
use scfs::cache::TieredStats;
use scfs::config::{Mode, ScfsConfig};
use scfs::error::ScfsError;
use scfs::fs::FileSystem;
use scfs::types::OpenFlags;
use sim_core::rng::DetRng;
use sim_core::stats::OpRecorder;
use sim_core::time::{SimDuration, SimInstant};
use sim_core::units::Bytes;

use crate::setup::Deployment;

/// A zipfian sampler over `0..n` (index 0 most popular): the CDF is
/// precomputed once, each draw is one uniform variate plus a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for `n` items with skew `theta`
    /// (`theta = 0` is uniform; ~0.99 is the classic YCSB skew).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total simulated mounts (clients).
    pub mounts: usize,
    /// Teams the mounts are split into; each team shares one account and
    /// one shared directory.
    pub teams: usize,
    /// Files populated in each team's shared directory.
    pub files_per_team: usize,
    /// Size of every populated file.
    pub file_size: Bytes,
    /// Operations each mount issues after the population epoch.
    pub ops_per_mount: usize,
    /// Fraction of operations that are whole-file reads (the rest are
    /// small in-place edits committed by `close`).
    pub read_fraction: f64,
    /// Skew of the zipfian file-popularity draw.
    pub zipf_theta: f64,
    /// Mean think time between a mount's operations.
    pub mean_think: SimDuration,
    /// The agent configuration every mount uses (the cache capacities live
    /// in `scfs.cache`). Its mode must use coordination: the fleet shares
    /// files.
    pub scfs: ScfsConfig,
    /// Master seed: same seed, same trace.
    pub seed: u64,
}

impl FleetConfig {
    /// A small, fast configuration (CI smoke and unit tests): 60 mounts in
    /// 6 teams over 4 KiB files.
    pub fn smoke() -> Self {
        FleetConfig {
            mounts: 60,
            teams: 6,
            files_per_team: 32,
            file_size: Bytes::kib(4),
            ops_per_mount: 8,
            read_fraction: 0.9,
            zipf_theta: 0.99,
            mean_think: SimDuration::from_secs(30),
            scfs: ScfsConfig::test(Mode::Blocking),
            seed: 0xF1EE7,
        }
    }
}

/// What one fleet run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Mounts simulated.
    pub mounts: usize,
    /// Whole-file reads executed.
    pub reads: u64,
    /// Edit+commit writes executed.
    pub writes: u64,
    /// Write attempts refused because another mount held the file lock.
    pub lock_conflicts: u64,
    /// Virtual time from the population epoch to the last mount's last op.
    pub makespan: SimDuration,
    /// Per-operation latency summaries (open/read/write/close).
    pub recorder: OpRecorder,
    /// Cache counters aggregated over every mount.
    pub cache: TieredStats,
    /// Payload bytes downloaded from the cloud, fleet-wide.
    pub bytes_downloaded: u64,
    /// Payload bytes uploaded to the cloud, fleet-wide.
    pub bytes_uploaded: u64,
    /// Version fetches that touched the cloud, fleet-wide.
    pub cloud_downloads: u64,
    /// Individual chunks downloaded from the cloud, fleet-wide.
    pub chunk_downloads: u64,
    /// Reads served entirely from the caches.
    pub cache_served_reads: u64,
    /// FNV-1a hash over every `(mount, op, file, instant)` tuple: two runs
    /// with the same seed must produce the same trace hash.
    pub trace_hash: u64,
}

impl FleetReport {
    /// Operations executed in total.
    pub fn ops_executed(&self) -> u64 {
        self.reads + self.writes
    }

    /// Operations per virtual second over the makespan.
    pub fn throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops_executed() as f64 / secs
        }
    }

    /// Memory-tier hit rate by lookup count.
    pub fn memory_hit_rate(&self) -> f64 {
        TieredStats::hit_rate(&self.cache.memory)
    }

    /// Disk-tier hit rate by lookup count.
    pub fn disk_hit_rate(&self) -> f64 {
        TieredStats::hit_rate(&self.cache.disk)
    }

    /// Fleet-wide hit rate by bytes: bytes served from either tier over
    /// bytes served plus bytes fetched from the cloud.
    pub fn byte_hit_rate(&self) -> f64 {
        let hit = self.cache.memory.bytes_hit + self.cache.disk.bytes_hit;
        let total = hit + self.bytes_downloaded;
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

/// Deterministic, per-file-distinct payload: a repeating 8-byte stamp of the
/// team and file indices, so every file's chunks hash differently but no
/// time is spent generating random bytes.
fn file_payload(team: usize, file: usize, size: usize) -> Vec<u8> {
    let stamp = ((team as u64) << 32 | file as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut data = vec![0u8; size];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (stamp >> ((i % 8) * 8)) as u8;
    }
    data
}

fn shared_path(team: usize, file: usize) -> String {
    format!("/t{team}/shared/f{file}")
}

/// Folds `value` into the FNV-1a trace hash of a fleet run.
fn fnv_mix(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One mount of a fleet: its agent, its private random stream, and whatever
/// the fleet's operations remember between calls.
struct FleetMount<S> {
    agent: ScfsAgent,
    rng: DetRng,
    state: S,
}

/// The seed and random stream of mount `m` of a fleet seeded `seed`.
fn mount_seeds(seed: u64, m: usize) -> (u64, DetRng) {
    (
        seed.wrapping_add(0xA11CE).wrapping_add(m as u64),
        DetRng::new(seed ^ (m as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    )
}

/// The fleet event loop. Every mount arrives at a deterministic, staggered
/// instant past `epoch`; then the mount with the earliest virtual clock
/// always runs next — so cross-mount interleaving (cache reuse, lock
/// contention, replica queues) happens in virtual-time order regardless of
/// fleet size — issuing `op`, thinking for an exponential time and
/// re-queueing until it has issued `ops_per_mount`. `op` folds what it did
/// into the trace hash; the loop folds the instant it finished at. Returns
/// the trace hash and the makespan from `epoch` to the last mount's last
/// operation.
fn drive<S>(
    mounts: &mut [FleetMount<S>],
    epoch: SimInstant,
    ops_per_mount: usize,
    mean_think: SimDuration,
    mut op: impl FnMut(usize, &mut FleetMount<S>, &mut u64),
) -> (u64, SimDuration) {
    let think =
        |rng: &mut DetRng| SimDuration::from_secs_f64(rng.exponential(mean_think.as_secs_f64()));
    for st in mounts.iter_mut() {
        let arrival = epoch
            .duration_since(st.agent.now())
            .saturating_add(think(&mut st.rng));
        st.agent.sleep(arrival);
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = mounts
        .iter()
        .enumerate()
        .map(|(idx, st)| Reverse((st.agent.now().as_nanos(), idx)))
        .collect();
    let mut remaining = vec![ops_per_mount; mounts.len()];
    let mut trace = 0xcbf2_9ce4_8422_2325;
    while let Some(Reverse((_, idx))) = heap.pop() {
        if remaining[idx] == 0 {
            continue;
        }
        remaining[idx] -= 1;
        let st = &mut mounts[idx];
        op(idx, st, &mut trace);
        fnv_mix(&mut trace, st.agent.now().as_nanos());
        if remaining[idx] > 0 {
            let pause = think(&mut st.rng);
            st.agent.sleep(pause);
            heap.push(Reverse((st.agent.now().as_nanos(), idx)));
        }
    }
    let end = mounts
        .iter()
        .map(|st| st.agent.now())
        .fold(epoch, SimInstant::max);
    (trace, end.duration_since(epoch))
}

/// Runs one fleet on `deployment`: populates every team's shared directory,
/// then drives all mounts through their operation mix in virtual-time order.
/// Every arrival, think time and popularity draw is a function of
/// `cfg.seed` alone, so the same workload replays over any backend.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (a non-coordinated mode, no
/// teams, fewer mounts than teams) or if the file system returns an error
/// other than a write-lock conflict.
pub fn run_fleet(deployment: &Deployment, cfg: &FleetConfig) -> FleetReport {
    assert!(
        cfg.scfs.mode.uses_coordination(),
        "the fleet shares directories; Mode::NonSharing cannot"
    );
    assert!(cfg.teams > 0, "need at least one team");
    assert!(cfg.mounts >= cfg.teams, "need at least one mount per team");
    assert!(cfg.files_per_team > 0, "need files to operate on");

    // Population: one writer mount per team creates the shared directory.
    // The epoch every operating mount starts at lies past the last commit
    // (foreground and background), so all population writes are visible.
    let mut epoch = SimInstant::EPOCH;
    for team in 0..cfg.teams {
        let mut writer = deployment.mount(
            &format!("team{team}"),
            cfg.scfs.clone(),
            cfg.seed.wrapping_add(0x5EED).wrapping_add(team as u64),
        );
        for file in 0..cfg.files_per_team {
            let data = file_payload(team, file, cfg.file_size.get() as usize);
            writer
                .write_file(&shared_path(team, file), &data)
                .expect("population writes cannot conflict");
        }
        epoch = epoch
            .max(writer.now())
            .max(writer.background_drain_instant());
    }
    // Clear of any metadata-cache expiry window.
    let epoch = epoch + SimDuration::from_secs(1);

    // Mount the fleet: team accounts are shared, so every mount of a team
    // sees the team's files without per-file ACL grants (no ACL storm at
    // 10⁴ mounts). A mount's state is its team.
    let mut mounts: Vec<FleetMount<usize>> = (0..cfg.mounts)
        .map(|m| {
            let team = m % cfg.teams;
            let (seed, rng) = mount_seeds(cfg.seed, m);
            FleetMount {
                agent: deployment.mount(&format!("team{team}"), cfg.scfs.clone(), seed),
                rng,
                state: team,
            }
        })
        .collect();

    let zipf = Zipf::new(cfg.files_per_team, cfg.zipf_theta);
    let mut recorder = OpRecorder::new();
    let (mut reads, mut writes, mut lock_conflicts) = (0u64, 0u64, 0u64);
    let edit_len = 4096.min(cfg.file_size.get() as usize).max(1);

    let (trace_hash, makespan) = drive(
        &mut mounts,
        epoch,
        cfg.ops_per_mount,
        cfg.mean_think,
        |idx, st, trace| {
            let file = zipf.sample(&mut st.rng);
            let path = shared_path(st.state, file);
            let is_read = st.rng.chance(cfg.read_fraction);
            let t0 = st.agent.now();
            // What happened, as the trace hash spells it.
            let outcome = if is_read {
                let handle = st
                    .agent
                    .open(&path, OpenFlags::read_only())
                    .expect("populated files open for read");
                let t1 = st.agent.now();
                let size = st.agent.handle_size(handle).expect("open handle");
                let data = st.agent.read(handle, 0, size as usize).expect("read");
                assert_eq!(data.len() as u64, size, "short read of {path}");
                let t2 = st.agent.now();
                st.agent.close(handle).expect("close clean handle");
                let t3 = st.agent.now();
                recorder.record("open", t1.duration_since(t0));
                recorder.record("read", t2.duration_since(t1));
                recorder.record("close_clean", t3.duration_since(t2));
                reads += 1;
                1
            } else {
                match st.agent.open(&path, OpenFlags::read_write()) {
                    Ok(handle) => {
                        let t1 = st.agent.now();
                        let edit = st.rng.bytes(edit_len);
                        st.agent.write(handle, 0, &edit).expect("write open handle");
                        let t2 = st.agent.now();
                        st.agent.close(handle).expect("commit edited file");
                        let t3 = st.agent.now();
                        recorder.record("open", t1.duration_since(t0));
                        recorder.record("write", t2.duration_since(t1));
                        recorder.record("close_commit", t3.duration_since(t2));
                        writes += 1;
                        2
                    }
                    Err(ScfsError::Locked { .. }) => {
                        // Another mount is committing this hot file: count
                        // the conflict and move on (the app-level retry is a
                        // fresh arrival).
                        lock_conflicts += 1;
                        3
                    }
                    Err(e) => panic!("fleet write open failed: {e}"),
                }
            };
            fnv_mix(trace, idx as u64);
            fnv_mix(trace, outcome);
            fnv_mix(trace, file as u64);
        },
    );

    // Aggregate.
    let mut cache = TieredStats::default();
    let (mut bytes_down, mut bytes_up, mut cloud_downloads, mut chunk_downloads, mut cache_reads) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for st in &mounts {
        cache.merge(&st.agent.cache_stats());
        let stats = st.agent.stats();
        bytes_down += stats.bytes_downloaded;
        bytes_up += stats.bytes_uploaded;
        cloud_downloads += stats.cloud_downloads;
        chunk_downloads += stats.chunk_downloads;
        cache_reads += stats.cache_served_reads;
    }
    FleetReport {
        mounts: cfg.mounts,
        reads,
        writes,
        lock_conflicts,
        makespan,
        recorder,
        cache,
        bytes_downloaded: bytes_down,
        bytes_uploaded: bytes_up,
        cloud_downloads,
        chunk_downloads,
        cache_served_reads: cache_reads,
        trace_hash,
    }
}

/// Weights of the metadata-heavy operation mix. Draws are proportional to
/// the weights; they need not sum to one.
#[derive(Debug, Clone, Copy)]
pub struct MetadataMix {
    /// `stat` of a populated file.
    pub stat: f64,
    /// `open(read-only)` + `close` of a populated file.
    pub open: f64,
    /// `mkdir` of a fresh, uniquely named directory.
    pub mkdir: f64,
    /// `rename` of the mount's private file (never contended).
    pub rename: f64,
}

impl MetadataMix {
    /// A stat-dominated storm, the shape of a build/indexer scan with some
    /// namespace churn.
    pub fn storm() -> Self {
        MetadataMix {
            stat: 0.55,
            open: 0.25,
            mkdir: 0.12,
            rename: 0.08,
        }
    }

    fn draw(&self, rng: &mut DetRng) -> MetadataOp {
        let total = self.stat + self.open + self.mkdir + self.rename;
        let mut u = rng.next_f64() * total;
        for (weight, op) in [
            (self.stat, MetadataOp::Stat),
            (self.open, MetadataOp::Open),
            (self.mkdir, MetadataOp::Mkdir),
        ] {
            if u < weight {
                return op;
            }
            u -= weight;
        }
        MetadataOp::Rename
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetadataOp {
    Stat,
    Open,
    Mkdir,
    Rename,
}

/// Configuration of one metadata-heavy fleet run over the sharded plane.
#[derive(Debug, Clone)]
pub struct MetadataFleetConfig {
    /// Total simulated mounts (clients).
    pub mounts: usize,
    /// Teams for the overlapping-directory variant (ignored when
    /// `disjoint_dirs`).
    pub teams: usize,
    /// Files populated in each mount's (or team's) directory.
    pub files_per_dir: usize,
    /// Metadata operations each mount issues after the population epoch.
    pub ops_per_mount: usize,
    /// Operation mix weights.
    pub mix: MetadataMix,
    /// `true`: every mount works in its own home directory (the shard-
    /// scaling case). `false`: mounts share team directories, so directory
    /// hashing concentrates the load on few shards (the contrast case).
    pub disjoint_dirs: bool,
    /// Skew of the zipfian file-popularity draw within a directory.
    pub zipf_theta: f64,
    /// Mean think time between a mount's operations.
    pub mean_think: SimDuration,
    /// The agent configuration every mount uses; its mode must use
    /// coordination. Set `metadata_cache_expiry` to zero so every `stat`
    /// actually reaches the coordination plane — with the 500 ms paper
    /// cache, a metadata storm mostly measures the client cache instead.
    pub scfs: ScfsConfig,
    /// Master seed: same seed, same trace.
    pub seed: u64,
}

impl MetadataFleetConfig {
    /// A small, fast configuration (CI smoke and unit tests).
    pub fn smoke() -> Self {
        let mut scfs = ScfsConfig::test(Mode::Blocking);
        scfs.metadata_cache_expiry = SimDuration::ZERO;
        MetadataFleetConfig {
            mounts: 12,
            teams: 3,
            files_per_dir: 8,
            ops_per_mount: 6,
            mix: MetadataMix::storm(),
            disjoint_dirs: true,
            zipf_theta: 0.8,
            mean_think: SimDuration::from_millis(50),
            scfs,
            seed: 0x5CA1E,
        }
    }
}

/// What one metadata-heavy fleet run measured.
#[derive(Debug, Clone)]
pub struct MetadataFleetReport {
    /// Mounts simulated.
    pub mounts: usize,
    /// `stat` calls executed.
    pub stats: u64,
    /// `open`+`close` pairs executed.
    pub opens: u64,
    /// Directories created.
    pub mkdirs: u64,
    /// Renames executed.
    pub renames: u64,
    /// Operations refused by lock contention (counted, not retried).
    pub conflicts: u64,
    /// Virtual time from the population epoch to the last mount's last op.
    pub makespan: SimDuration,
    /// Per-operation-class latency summaries: `stat`, `open`, `mkdir` and
    /// `rename` are recorded separately so shard-scaling claims can be made
    /// per class, not over one folded histogram.
    pub recorder: OpRecorder,
    /// FNV-1a trace hash: same seed, same trace.
    pub trace_hash: u64,
}

impl MetadataFleetReport {
    /// Metadata operations executed in total.
    pub fn ops_executed(&self) -> u64 {
        self.stats + self.opens + self.mkdirs + self.renames
    }

    /// Aggregate metadata operations per virtual second over the makespan.
    pub fn throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops_executed() as f64 / secs
        }
    }
}

/// What a metadata-fleet mount remembers between operations.
struct MetadataHome {
    dir: String,
    dirs_made: usize,
    own_version: usize,
}

/// The directory and account a mount works in.
fn metadata_home(cfg: &MetadataFleetConfig, mount: usize) -> (String, String) {
    if cfg.disjoint_dirs {
        (format!("u{mount}"), format!("/u{mount}"))
    } else {
        let team = mount % cfg.teams;
        (format!("team{team}"), format!("/t{team}/shared"))
    }
}

/// Runs one metadata-heavy fleet on `deployment` (the coordination plane is
/// the system under test — build it with [`crate::setup::Plane::Sharded`] to
/// measure shard scaling): populates every working directory, then drives
/// all mounts through stat/open/mkdir/rename storms in virtual-time order.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (a non-coordinated mode, no
/// mounts, no files) or if the file system returns an error other than a
/// lock conflict.
pub fn run_fleet_metadata(
    deployment: &Deployment,
    cfg: &MetadataFleetConfig,
) -> MetadataFleetReport {
    assert!(
        cfg.scfs.mode.uses_coordination(),
        "the metadata plane is the system under test; Mode::NonSharing bypasses it"
    );
    assert!(cfg.mounts > 0, "need at least one mount");
    assert!(cfg.files_per_dir > 0, "need files to stat and open");
    assert!(
        cfg.disjoint_dirs || cfg.teams > 0,
        "overlapping directories need at least one team"
    );

    // Population: each mount mounts its account; the owner of each working
    // directory (every mount when disjoint, the first mount of each team
    // when overlapping) creates the stat/open targets, and every mount
    // creates the private file its renames will churn.
    let mut epoch = SimInstant::EPOCH;
    let mut mounts: Vec<FleetMount<MetadataHome>> = (0..cfg.mounts)
        .map(|m| {
            let (account, dir) = metadata_home(cfg, m);
            let (seed, rng) = mount_seeds(cfg.seed, m);
            let mut agent = deployment.mount(&account, cfg.scfs.clone(), seed);
            let populates_dir = cfg.disjoint_dirs || m < cfg.teams;
            if populates_dir {
                // `mkdir` (unlike `write_file`) checks its parent, so the
                // working directory must exist before the storm's mkdirs.
                if let Some(parent) = dir.rfind('/').filter(|&p| p > 0).map(|p| &dir[..p]) {
                    agent.mkdir(parent).expect("fresh team parent directory");
                }
                agent.mkdir(&dir).expect("fresh working directory");
                for f in 0..cfg.files_per_dir {
                    let data = file_payload(m, f, 256);
                    agent
                        .write_file(&format!("{dir}/f{f}"), &data)
                        .expect("population writes cannot conflict");
                }
            }
            agent
                .write_file(&format!("{dir}/own_m{m}_v0"), &file_payload(m, !0, 64))
                .expect("private file creation cannot conflict");
            epoch = epoch.max(agent.now()).max(agent.background_drain_instant());
            FleetMount {
                agent,
                rng,
                state: MetadataHome {
                    dir,
                    dirs_made: 0,
                    own_version: 0,
                },
            }
        })
        .collect();
    let epoch = epoch + SimDuration::from_secs(1);

    let zipf = Zipf::new(cfg.files_per_dir, cfg.zipf_theta);
    let mut recorder = OpRecorder::new();
    let (mut stats, mut opens, mut mkdirs, mut renames, mut conflicts) =
        (0u64, 0u64, 0u64, 0u64, 0u64);

    let (trace_hash, makespan) = drive(
        &mut mounts,
        epoch,
        cfg.ops_per_mount,
        cfg.mean_think,
        |idx, st, trace| {
            let FleetMount {
                agent,
                rng,
                state: home,
            } = st;
            let op = cfg.mix.draw(rng);
            let t0 = agent.now();
            match op {
                MetadataOp::Stat => {
                    let file = zipf.sample(rng);
                    let path = format!("{}/f{file}", home.dir);
                    agent.stat(&path).expect("populated files stat");
                    recorder.record("stat", agent.now().duration_since(t0));
                    stats += 1;
                    fnv_mix(trace, file as u64);
                }
                MetadataOp::Open => {
                    let file = zipf.sample(rng);
                    let path = format!("{}/f{file}", home.dir);
                    let handle = agent
                        .open(&path, OpenFlags::read_only())
                        .expect("populated files open for read");
                    agent.close(handle).expect("close clean handle");
                    recorder.record("open", agent.now().duration_since(t0));
                    opens += 1;
                    fnv_mix(trace, file as u64);
                }
                MetadataOp::Mkdir => {
                    let path = format!("{}/m{idx}_d{}", home.dir, home.dirs_made);
                    home.dirs_made += 1;
                    agent.mkdir(&path).expect("fresh directory names");
                    recorder.record("mkdir", agent.now().duration_since(t0));
                    mkdirs += 1;
                    fnv_mix(trace, home.dirs_made as u64);
                }
                MetadataOp::Rename => {
                    let from = format!("{}/own_m{idx}_v{}", home.dir, home.own_version);
                    let to = format!("{}/own_m{idx}_v{}", home.dir, home.own_version + 1);
                    match agent.rename(&from, &to) {
                        Ok(()) => {
                            home.own_version += 1;
                            recorder.record("rename", agent.now().duration_since(t0));
                            renames += 1;
                        }
                        Err(ScfsError::Locked { .. }) => conflicts += 1,
                        Err(e) => panic!("metadata fleet rename failed: {e}"),
                    }
                    fnv_mix(trace, home.own_version as u64);
                }
            }
            fnv_mix(trace, idx as u64);
        },
    );

    MetadataFleetReport {
        mounts: cfg.mounts,
        stats,
        opens,
        mkdirs,
        renames,
        conflicts,
        makespan,
        recorder,
        trace_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{Backend, Plane};
    use coord::sharded::ShardTopology;

    /// The single-cloud paper deployment over `shards` instantaneous
    /// register groups.
    fn sharded(shards: usize, seed: u64) -> Deployment {
        Deployment::on(Backend::Aws)
            .plane(Plane::Sharded(ShardTopology::test(shards)))
            .build(seed)
    }

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = DetRng::new(7);
        let mut counts = vec![0u64; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must beat rank 10");
        assert!(counts[0] > counts[99] * 10, "head ≫ tail");
        let head: u64 = counts[..10].iter().sum();
        assert!(
            head > 10_000,
            "the top 10% draws the majority under theta=0.99, got {head}"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let zipf = Zipf::new(10, 0.0);
        let mut rng = DetRng::new(9);
        let mut counts = vec![0u64; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&(c as i64)), "uniform-ish, got {c}");
        }
    }

    #[test]
    fn file_payloads_are_distinct_per_file() {
        let a = file_payload(0, 0, 1024);
        let b = file_payload(0, 1, 1024);
        let c = file_payload(1, 0, 1024);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn smoke_fleet_runs_and_reports() {
        let mut cfg = FleetConfig::smoke();
        cfg.mounts = 12;
        cfg.teams = 3;
        cfg.files_per_team = 8;
        cfg.ops_per_mount = 4;
        let report = run_fleet(&Deployment::paper(Backend::Aws, cfg.seed), &cfg);
        assert_eq!(report.mounts, 12);
        assert_eq!(
            report.reads + report.writes + report.lock_conflicts,
            (cfg.mounts * cfg.ops_per_mount) as u64
        );
        assert!(report.recorder.summary("open").is_some());
        assert!(report.makespan > SimDuration::ZERO);
        assert!(report.throughput() > 0.0);
        let lookups = report.cache.memory.hits + report.cache.memory.misses;
        assert!(lookups > 0, "reads must touch the cache");
    }

    #[test]
    fn metadata_mix_draw_covers_all_ops() {
        let mix = MetadataMix::storm();
        let mut rng = DetRng::new(7);
        let mut seen = [false; 4];
        for _ in 0..512 {
            let op = mix.draw(&mut rng);
            seen[match op {
                MetadataOp::Stat => 0,
                MetadataOp::Open => 1,
                MetadataOp::Mkdir => 2,
                MetadataOp::Rename => 3,
            }] = true;
        }
        assert_eq!(seen, [true; 4], "every op class must be drawable");
    }

    #[test]
    fn metadata_smoke_runs_and_records_per_op_classes() {
        let cfg = MetadataFleetConfig::smoke();
        let report = run_fleet_metadata(&sharded(2, cfg.seed), &cfg);
        assert_eq!(report.mounts, 12);
        assert_eq!(
            report.ops_executed() + report.conflicts,
            (cfg.mounts * cfg.ops_per_mount) as u64
        );
        assert!(report.makespan > SimDuration::ZERO);
        assert!(report.throughput() > 0.0);
        // Satellite: per-op-class histograms, not one folded histogram. The
        // smoke run is large enough that every class occurs.
        for op in ["stat", "open", "mkdir", "rename"] {
            assert!(
                report.recorder.summary(op).is_some(),
                "missing recorder class {op}"
            );
        }
    }

    #[test]
    fn metadata_overlapping_dirs_share_team_directories() {
        let mut cfg = MetadataFleetConfig::smoke();
        cfg.disjoint_dirs = false;
        let report = run_fleet_metadata(&sharded(2, cfg.seed), &cfg);
        assert_eq!(
            report.ops_executed() + report.conflicts,
            (cfg.mounts * cfg.ops_per_mount) as u64
        );
        assert!(report.stats + report.opens > 0);
    }

    #[test]
    fn metadata_fleet_is_deterministic() {
        let cfg = MetadataFleetConfig::smoke();
        let a = run_fleet_metadata(&sharded(3, cfg.seed), &cfg);
        let b = run_fleet_metadata(&sharded(3, cfg.seed), &cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.ops_executed(), b.ops_executed());
    }
}
