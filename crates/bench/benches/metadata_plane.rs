//! Perf-trajectory harness for the sharded, quorum-replicated metadata
//! plane.
//!
//! Runs the `workloads::fleet` metadata-heavy mode — a stat/open/mkdir/
//! rename storm from a fleet of mounts with the client metadata cache
//! disabled, so every operation reaches the coordination plane — over 1, 2
//! and 4 metro shards (`ShardTopology::metro`, CFT f = 1). Each broadcast
//! read occupies every replica of its register group, so one group
//! saturates at roughly `1 / processing_mean` operations per second
//! regardless of replica count; partitioning the namespace over more
//! register groups is the only axis that adds throughput. The rows record
//! aggregate metadata throughput and per-operation-class p50/p99 per shard
//! count, for disjoint home directories (the linear-scaling case) and one
//! overlapping-team contrast row (directory hashing concentrates the load).
//!
//! Runs under `cargo bench --bench metadata_plane` (CI bench-smoke uses the
//! defaults; set `METADATA_MOUNTS` to scale up). Virtual time is
//! deterministic given the seed, so the numbers are stable across machines;
//! rows append to `BENCH_transfer.json` under the `metadata_plane` tag.

use coord::sharded::ShardTopology;
use scfs::config::{Mode, ScfsConfig};
use sim_core::time::SimDuration;
use workloads::fleet::{run_fleet_metadata, MetadataFleetConfig, MetadataFleetReport, MetadataMix};
use workloads::setup::{Backend, Deployment, Plane};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn plane_config(mounts: usize, disjoint: bool) -> MetadataFleetConfig {
    let mut cfg = MetadataFleetConfig::smoke();
    cfg.mounts = mounts;
    // Two teams, so the overlapping variant concentrates the whole fleet on
    // two directories — at most two of the four shards see any routed load.
    cfg.teams = 2.min(mounts);
    cfg.files_per_dir = 12;
    cfg.ops_per_mount = 40;
    cfg.disjoint_dirs = disjoint;
    // Stat-dominated scan mix: renames scatter a collect round to every
    // register group (the prefix may span shards), so they burn plane-wide
    // capacity; a heavy rename share would cap the per-shard scaling this
    // bench exists to measure.
    cfg.mix = MetadataMix {
        stat: 0.70,
        open: 0.18,
        mkdir: 0.07,
        rename: 0.05,
    };
    cfg.zipf_theta = 0.9;
    // 10 ms think over 2–6 ms replica processing: the fleet demands far
    // more than one register group can serve, so added shards convert
    // directly into throughput.
    cfg.mean_think = SimDuration::from_millis(10);
    let mut scfs = ScfsConfig::test(Mode::Blocking);
    // The paper's 500 ms client metadata cache would absorb most of the
    // storm; the plane is the system under test, so disable it.
    scfs.metadata_cache_expiry = SimDuration::ZERO;
    cfg.scfs = scfs;
    cfg.seed = 0x4D45_5441;
    cfg
}

/// One storm on the single-cloud deployment over `shards` metro register
/// groups (CFT, f = 1).
fn run_storm(shards: usize, cfg: &MetadataFleetConfig) -> MetadataFleetReport {
    let deployment = Deployment::on(Backend::Aws)
        .plane(Plane::Sharded(ShardTopology::metro(shards, 1)))
        .build(cfg.seed);
    run_fleet_metadata(&deployment, cfg)
}

fn row(label: &str, shards: usize, report: &mut MetadataFleetReport) -> String {
    let stat_p50 = report.recorder.percentile("stat", 50.0);
    let stat_p99 = report.recorder.percentile("stat", 99.0);
    let open_p99 = report.recorder.percentile("open", 99.0);
    let mkdir_p99 = report.recorder.percentile("mkdir", 99.0);
    let rename_p99 = report.recorder.percentile("rename", 99.0);
    println!(
        "  {label:<12} shards={shards} {:>5} ops {:>8.1} ops/s | stat p50 {stat_p50:.4}s \
         p99 {stat_p99:.4}s | open p99 {open_p99:.4}s | mkdir p99 {mkdir_p99:.4}s | \
         rename p99 {rename_p99:.4}s | {} conflicts",
        report.ops_executed(),
        report.throughput(),
        report.conflicts,
    );
    format!(
        "{{\"dirs\": \"{label}\", \"shards\": {shards}, \"mounts\": {}, \
         \"ops\": {}, \"throughput_ops_per_virtual_sec\": {:.2}, \
         \"stat_p50_virtual_secs\": {stat_p50:.6}, \
         \"stat_p99_virtual_secs\": {stat_p99:.6}, \
         \"open_p99_virtual_secs\": {open_p99:.6}, \
         \"mkdir_p99_virtual_secs\": {mkdir_p99:.6}, \
         \"rename_p99_virtual_secs\": {rename_p99:.6}, \
         \"conflicts\": {}}}",
        report.mounts,
        report.ops_executed(),
        report.throughput(),
        report.conflicts,
    )
}

fn main() {
    let mounts: usize = std::env::var("METADATA_MOUNTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    println!("metadata_plane: {mounts} mounts, stat/open/mkdir/rename storm, metro CFT f=1");
    let mut rows = Vec::new();
    let mut disjoint = Vec::new();
    for shards in SHARD_COUNTS {
        let mut report = run_storm(shards, &plane_config(mounts, true));
        rows.push(row("disjoint", shards, &mut report));
        disjoint.push(report);
    }
    // The headline scaling claim: with disjoint home directories the plane's
    // throughput is linear-in-shards (≥ 3× from 1 to 4 shards) and the tail
    // collapses as the per-group queues drain.
    let widest = SHARD_COUNTS[SHARD_COUNTS.len() - 1];
    let base = &disjoint[0];
    let wide = &disjoint[SHARD_COUNTS.len() - 1];
    let scaling = wide.throughput() / base.throughput();
    let (mut base_rec, mut wide_rec) = (base.recorder.clone(), wide.recorder.clone());
    let (p99_1, p99_4) = (
        base_rec.percentile("stat", 99.0),
        wide_rec.percentile("stat", 99.0),
    );
    println!(
        "  scaling 1→{widest} shards: {scaling:.2}x throughput, stat p99 {p99_1:.3}s → {p99_4:.3}s"
    );
    assert!(
        scaling >= 3.0,
        "disjoint-directory throughput must scale ≥3x from 1 to 4 shards, got {scaling:.2}x"
    );
    assert!(
        p99_4 <= p99_1,
        "stat p99 must not regress with more shards: {p99_4:.4}s vs {p99_1:.4}s"
    );
    // Contrast: overlapping team directories hash to few shards, so the
    // same fleet sees much less benefit from the same 4-shard plane.
    let mut overlap = run_storm(widest, &plane_config(mounts, false));
    rows.push(row("overlapping", widest, &mut overlap));
    let results = format!("[{}]", rows.join(", "));
    bench::record_trajectory("metadata_plane", &results);
    println!("trajectory: BENCH_transfer.json");
}
