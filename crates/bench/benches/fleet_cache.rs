//! Perf-trajectory harness for the fleet-scale two-tier chunk cache.
//!
//! Runs the `workloads::fleet` harness — a zipfian, shared-directory
//! read/write mix over thousands of simulated mounts — once on each
//! backend, with cache capacities sized well below the per-team working set
//! so LRU eviction actually decides what survives. Each row records the
//! measured memory/disk hit rates, byte hit rate, demotions/promotions, and
//! the p50/p99 virtual latency of the read and commit paths.
//!
//! Runs under `cargo bench --bench fleet_cache` (the CI bench-smoke step
//! uses the small default fleet; set `FLEET_MOUNTS` to scale up). Virtual
//! time is deterministic given the seed, so the emitted numbers are stable
//! across machines; rows are appended to the committed
//! `BENCH_transfer.json` trajectory under the `fleet_cache` tag.

use scfs::config::{Mode, ScfsConfig};
use sim_core::time::SimDuration;
use sim_core::units::Bytes;
use workloads::fleet::{run_fleet, FleetConfig, FleetReport};
use workloads::setup::{Backend, Deployment};

fn fleet_config(mounts: usize) -> FleetConfig {
    let mut cfg = FleetConfig::smoke();
    cfg.mounts = mounts;
    cfg.teams = (mounts / 10).max(1);
    cfg.files_per_team = 64;
    cfg.file_size = Bytes::kib(4);
    cfg.ops_per_mount = 24;
    cfg.read_fraction = 0.9;
    cfg.zipf_theta = 0.99;
    cfg.mean_think = SimDuration::from_secs(20);
    // Memory holds ~8 of the 64 files, disk ~32: both tiers stay under
    // eviction pressure.
    cfg.scfs =
        ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::kib(36), Bytes::kib(132));
    cfg.seed = 0xCAFE;
    cfg
}

fn row(backend_label: &str, mounts: usize, report: &mut FleetReport) -> String {
    let read_p50 = report.recorder.percentile("read", 50.0);
    let read_p99 = report.recorder.percentile("read", 99.0);
    let commit_p50 = report.recorder.percentile("close_commit", 50.0);
    let commit_p99 = report.recorder.percentile("close_commit", 99.0);
    println!(
        "  {backend_label} hit mem {:.3} disk {:.3} bytes {:.3} | \
         read p50 {read_p50:.4}s p99 {read_p99:.4}s | commit p50 {commit_p50:.3}s \
         p99 {commit_p99:.3}s | {} demotions, {} lock conflicts",
        report.memory_hit_rate(),
        report.disk_hit_rate(),
        report.byte_hit_rate(),
        report.cache.demotions,
        report.lock_conflicts,
    );
    format!(
        "{{\"backend\": \"{backend_label}\", \"mounts\": {mounts}, \
         \"memory_hit_rate\": {:.4}, \"disk_hit_rate\": {:.4}, \
         \"byte_hit_rate\": {:.4}, \"promotions\": {}, \"demotions\": {}, \
         \"read_p50_virtual_secs\": {read_p50:.6}, \"read_p99_virtual_secs\": {read_p99:.6}, \
         \"commit_p50_virtual_secs\": {commit_p50:.6}, \
         \"commit_p99_virtual_secs\": {commit_p99:.6}, \
         \"ops\": {}, \"lock_conflicts\": {}}}",
        report.memory_hit_rate(),
        report.disk_hit_rate(),
        report.byte_hit_rate(),
        report.cache.promotions,
        report.cache.demotions,
        report.ops_executed(),
        report.lock_conflicts,
    )
}

fn main() {
    let mounts: usize = std::env::var("FLEET_MOUNTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    println!("fleet_cache: {mounts} mounts, zipfian 90/10 read/write mix, two-tier LRU hit rates");
    let mut rows = Vec::new();
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let cfg = fleet_config(mounts);
        let mut report = run_fleet(&Deployment::paper(backend, cfg.seed), &cfg);
        assert!(
            report.cache.memory.evictions > 0,
            "the bench must keep the memory tier under eviction pressure"
        );
        rows.push(row(backend.label(), mounts, &mut report));
    }
    let results = format!("[{}]", rows.join(", "));
    bench::record_trajectory("fleet_cache", &results);
    println!("trajectory: BENCH_transfer.json");
}
