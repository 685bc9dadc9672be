//! Explore the SCFS cost model: what the coordination service costs per day,
//! what a read/write costs per operation, and what storing a file costs per
//! day — the analyses behind Figure 11 of the paper — plus a fleet-scale
//! placement comparison: what a user-month costs under each placement
//! policy over the heterogeneous provider matrix, healthy and degraded.
//!
//! Run with: `cargo run --example cost_explorer`

use scfs_repro::cloud_store::pricing::VmInstanceSize;
use scfs_repro::coord::deployment::CoordDeployment;
use scfs_repro::placement::PolicyKind;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::cost::{CostBackend, CostModel};
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::sim_core::units::{Bytes, MicroDollars};
use scfs_repro::workloads::costs::{
    dollars_per_user_month, figure11a, figure11b, figure11c, matrix_deployment, MatrixSweep,
};
use scfs_repro::workloads::fleet::{run_fleet, FleetConfig};

/// Runs a small zipfian fleet over the matrix in `sweep`'s condition with
/// one placement policy and returns what a user-month of it costs.
fn fleet_dollars_per_user_month(sweep: MatrixSweep, policy: PolicyKind) -> f64 {
    let mut cfg = FleetConfig::smoke();
    cfg.mounts = 12;
    cfg.teams = 3;
    cfg.files_per_team = 8;
    cfg.ops_per_mount = 8;
    cfg.mean_think = SimDuration::from_secs(20);
    cfg.scfs = ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::new(1), Bytes::new(1));
    cfg.seed = 0xC057;
    let deployment = matrix_deployment(sweep, policy, cfg.seed);
    let report = run_fleet(&deployment, &cfg);
    dollars_per_user_month(&deployment, &report)
}

fn main() {
    println!("{}", figure11a().render());
    println!("{}", figure11b().render());
    println!("{}", figure11c().render());

    // How many users does it take to fund the CoC coordination service at
    // one dollar per month each?
    let coc = CoordDeployment::cloud_of_clouds(VmInstanceSize::ExtraLarge);
    println!(
        "CoC coordination service (Extra Large replicas): ${:.2}/month, funded by {} users at $1/month",
        coc.cost_per_month().as_dollars(),
        coc.users_for_budget(MicroDollars::from_dollars(1.0))
    );

    // A typical personal workload: 2 000 files of 1 MiB, re-read 10% of them
    // per day without local caches, re-written 5% per day.
    let coc_model = CostModel::new(CostBackend::CloudOfClouds);
    let aws_model = CostModel::new(CostBackend::Aws);
    let files = 2_000.0;
    let size = Bytes::mib(1);
    for (label, model) in [("AWS", &aws_model), ("CoC", &coc_model)] {
        let storage = model.storage_cost_per_day(size) * files;
        let reads = model.read_cost(size) * (files * 0.10);
        let writes = model.write_cost(size) * (files * 0.05);
        let daily = storage + reads + writes;
        println!(
            "{label}: storage {:.0}µ$ + reads {:.0}µ$ + writes {:.0}µ$  =>  ${:.4}/day",
            storage.get(),
            reads.get(),
            writes.get(),
            daily.as_dollars()
        );
    }

    // Fleet-scale placement comparison over the heterogeneous matrix: the
    // same zipfian fleet under each policy, healthy and degraded (one cloud
    // 10x slower with a flaky regional store dropping ~4% of requests; one
    // block-holding cloud 10x pricier).
    println!("\nPlacement over the 7-provider matrix ($ per user-month, 12-mount fleet):");
    let policies = [
        PolicyKind::AllClouds,
        PolicyKind::CheapestQuorum { slo_millis: 2_500 },
        PolicyKind::FastestRead,
    ];
    let sweeps = [
        ("healthy", MatrixSweep::Healthy),
        ("slow s3 (10x latency, flaky faults)", MatrixSweep::SlowS3),
        ("pricey flaky (10x prices)", MatrixSweep::PriceyFlaky),
    ];
    for (label, sweep) in sweeps {
        println!("  {label}:");
        for policy in policies {
            let dollars = fleet_dollars_per_user_month(sweep, policy);
            println!("    {:<16} ${dollars:.4}/user/month", policy.label());
        }
    }
}
