//! The cost analyses of Figure 11 and the durability table (Table 1), and
//! what a user-month of a fleet costs under a placement policy over the
//! heterogeneous provider matrix.

use cloud_store::pricing::VmInstanceSize;
use cloud_store::providers::ProviderSet;
use coord::deployment::CoordDeployment;
use placement::PolicyKind;
use scfs::cost::{CostBackend, CostModel};
use scfs::durability::table1_rows;
use sim_core::fault::FaultPlan;
use sim_core::units::Bytes;

use crate::fleet::FleetReport;
use crate::results::Table;
use crate::setup::{Backend, Deployment, Providers};

/// Table 1: durability levels.
pub fn table1() -> Table {
    let mut table = Table::new(
        "Table 1: SCFS durability levels",
        vec![
            "level".into(),
            "location".into(),
            "latency".into(),
            "fault tolerance".into(),
            "system call".into(),
        ],
    );
    for (level, location, latency, tolerates, call) in table1_rows() {
        table.push_row(vec![
            level.to_string(),
            location.to_string(),
            latency.to_string(),
            tolerates.to_string(),
            call.to_string(),
        ]);
    }
    table
}

/// Figure 11(a): coordination-service VM cost per day and metadata capacity.
pub fn figure11a() -> Table {
    let mut table = Table::new(
        "Figure 11(a): coordination service operation cost per day and capacity",
        vec![
            "VM instance".into(),
            "EC2".into(),
            "EC2 x4".into(),
            "CoC".into(),
            "capacity (files)".into(),
        ],
    );
    for (label, size) in [
        ("Large", VmInstanceSize::Large),
        ("Extra Large", VmInstanceSize::ExtraLarge),
    ] {
        let ec2 = CoordDeployment::ec2_single(size);
        let ec2_4 = CoordDeployment::ec2_four(size);
        let coc = CoordDeployment::cloud_of_clouds(size);
        table.push_row(vec![
            label.to_string(),
            format!("${:.2}", ec2.cost_per_day().as_dollars()),
            format!("${:.2}", ec2_4.cost_per_day().as_dollars()),
            format!("${:.2}", coc.cost_per_day().as_dollars()),
            format!("{}M", coc.capacity_files() / 1_000_000),
        ]);
    }
    table
}

/// The file sizes swept by Figures 11(b) and 11(c).
pub fn figure11_sizes() -> Vec<Bytes> {
    vec![
        Bytes::mib(1),
        Bytes::mib(5),
        Bytes::mib(10),
        Bytes::mib(15),
        Bytes::mib(20),
        Bytes::mib(25),
        Bytes::mib(30),
    ]
}

/// Figure 11(b): cost per read/write operation vs. file size (micro-dollars).
pub fn figure11b() -> Table {
    let aws = CostModel::new(CostBackend::Aws);
    let coc = CostModel::new(CostBackend::CloudOfClouds);
    let mut table = Table::new(
        "Figure 11(b): cost per operation (micro-dollars)",
        vec![
            "file size".into(),
            "CoC read".into(),
            "AWS read".into(),
            "CoC write".into(),
            "AWS write".into(),
            "cached read".into(),
        ],
    );
    for size in figure11_sizes() {
        table.push_row(vec![
            format!("{size}"),
            format!("{:.1}", coc.read_cost(size).get()),
            format!("{:.1}", aws.read_cost(size).get()),
            format!("{:.1}", coc.write_cost(size).get()),
            format!("{:.1}", aws.write_cost(size).get()),
            format!("{:.2}", aws.cached_read_cost().get()),
        ]);
    }
    table
}

/// Figure 11(c): storage cost per file version per day (micro-dollars).
pub fn figure11c() -> Table {
    let aws = CostModel::new(CostBackend::Aws);
    let coc = CostModel::new(CostBackend::CloudOfClouds);
    let mut table = Table::new(
        "Figure 11(c): storage cost per file version per day (micro-dollars)",
        vec![
            "file size".into(),
            "CoC".into(),
            "AWS".into(),
            "CoC/AWS".into(),
        ],
    );
    for size in figure11_sizes() {
        let a = aws.storage_cost_per_day(size).get();
        let c = coc.storage_cost_per_day(size).get();
        table.push_row(vec![
            format!("{size}"),
            format!("{c:.1}"),
            format!("{a:.1}"),
            format!("{:.2}", c / a),
        ]);
    }
    table
}

/// A condition of the seven-provider matrix
/// ([`ProviderSet::heterogeneous_matrix`]) that placement policies are
/// compared under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixSweep {
    /// Every provider behaves as advertised.
    Healthy,
    /// Amazon S3 answers 10x slower, and the flaky regional store drops
    /// about 4 % of requests.
    SlowS3,
    /// The flaky regional store, a block holder under the identity
    /// placement, charges 10x every price.
    PriceyFlaky,
}

/// Matrix index of Amazon S3 and of the flaky regional store.
const S3: usize = 1;
const FLAKY: usize = 2;

/// The cloud-of-clouds over the provider matrix in `sweep`'s condition,
/// `policy` placing each version on 3 clouds and waiting for 2 block acks.
pub fn matrix_deployment(sweep: MatrixSweep, policy: PolicyKind, seed: u64) -> Deployment {
    let mut profiles = ProviderSet::heterogeneous_matrix();
    match sweep {
        MatrixSweep::Healthy => {}
        MatrixSweep::SlowS3 => profiles[S3] = profiles[S3].with_latency_scaled(10.0),
        MatrixSweep::PriceyFlaky => profiles[FLAKY] = profiles[FLAKY].with_prices_scaled(10.0),
    }
    let deployment = Deployment::on(Backend::CloudOfClouds)
        .providers(Providers::Explicit(profiles))
        .placement(policy, 3, 2)
        .build(seed);
    if sweep == MatrixSweep::SlowS3 {
        deployment.clouds[FLAKY].set_fault_plan(FaultPlan::flaky(0.04), seed);
    }
    deployment
}

/// What one user-month of `report`'s fleet costs on `deployment`: the
/// clouds' operation and traffic ledgers, which cover the makespan, scaled
/// to 30 days, plus a month of storage rent on what the fleet left behind,
/// divided by the mounts.
pub fn dollars_per_user_month(deployment: &Deployment, report: &FleetReport) -> f64 {
    let month_factor = 30.0 * 86_400.0 / report.makespan.as_secs_f64().max(1.0);
    let ops: f64 = deployment
        .clouds
        .iter()
        .map(|c| c.ledger().grand_total().as_dollars())
        .sum();
    let rent: f64 = deployment
        .clouds
        .iter()
        .map(|c| {
            c.profile()
                .prices
                .storage_cost(c.stored_bytes(), 30.0)
                .as_dollars()
        })
        .sum();
    (ops * month_factor + rent) / report.mounts as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11a_matches_paper_numbers() {
        let t = figure11a();
        assert_eq!(t.cell("Large", "EC2"), Some("$6.24"));
        assert_eq!(t.cell("Large", "CoC"), Some("$39.60"));
        assert_eq!(t.cell("Extra Large", "CoC"), Some("$77.04"));
        assert_eq!(t.cell("Extra Large", "capacity (files)"), Some("15M"));
    }

    #[test]
    fn figure11b_read_costs_dominate_write_costs_for_large_files() {
        let t = figure11b();
        let read: f64 = t.cell("30.00MiB", "CoC read").unwrap().parse().unwrap();
        let write: f64 = t.cell("30.00MiB", "CoC write").unwrap().parse().unwrap();
        assert!(read > write * 10.0);
    }

    #[test]
    fn figure11c_coc_premium_is_about_fifty_percent() {
        let t = figure11c();
        let ratio: f64 = t.cell("20.00MiB", "CoC/AWS").unwrap().parse().unwrap();
        assert!((1.3..1.7).contains(&ratio));
    }

    #[test]
    fn table1_has_four_levels() {
        assert_eq!(table1().rows.len(), 4);
    }
}
