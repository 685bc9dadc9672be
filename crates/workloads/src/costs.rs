//! The cost analyses of Figure 11 and the durability table (Table 1), and
//! what a user-month of a fleet costs under a placement policy over the
//! heterogeneous provider matrix. Every cost is measured: what the simulated
//! clouds' ledgers charged, plus coordination accesses at the paper's price.

use cloud_store::pricing::VmInstanceSize;
use cloud_store::providers::ProviderSet;
use coord::deployment::CoordDeployment;
use placement::PolicyKind;
use scfs::agent::ScfsAgent;
use scfs::config::{Mode, ScfsConfig};
use scfs::durability::table1_rows;
use scfs::fs::FileSystem;
use sim_core::fault::FaultPlan;
use sim_core::rng::DetRng;
use sim_core::time::SimDuration;
use sim_core::units::{Bytes, MicroDollars};

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

/// The paper's price of one coordination-service access (§4.5): a
/// `getMetadata` costs 11.32 µ$, the outbound traffic the replication
/// protocol sends for a ~1 KB tuple included.
pub const COORDINATION_ACCESS: MicroDollars = MicroDollars::new(11.32);

/// What `deployment`'s clouds have charged so far for requests and traffic.
fn charged(deployment: &Deployment) -> MicroDollars {
    let clouds = deployment.clouds.iter();
    clouds.map(|c| c.ledger().grand_total()).sum()
}

/// What the bytes `deployment`'s clouds store now rent for over `days`,
/// each cloud at its own price.
fn rent(deployment: &Deployment, days: f64) -> MicroDollars {
    let clouds = deployment.clouds.iter();
    clouds
        .map(|c| c.profile().prices.storage_cost(c.stored_bytes(), days))
        .sum()
}

/// What one file operation spent, by the layer that spent it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Cloud PUT requests, summed over the clouds.
    pub puts: u64,
    /// Cloud GET requests, summed over the clouds.
    pub gets: u64,
    /// Bytes the clouds sent out: the traffic a read pays for.
    pub egress: Bytes,
    /// Coordination-service accesses.
    pub accesses: u64,
    /// The clouds' request and traffic charges, plus `accesses` at
    /// [`COORDINATION_ACCESS`].
    pub cost: MicroDollars,
}

/// Runs `op` on `deployment` and returns what it spent. Resets the clouds'
/// ledgers and request counters first.
fn spent_on(deployment: &Deployment, op: impl FnOnce()) -> OpCost {
    for cloud in &deployment.clouds {
        cloud.ledger().reset();
        cloud.metrics().reset();
    }
    let before = deployment.coordinator().access_count();
    op();
    let accesses = deployment.coordinator().access_count() - before;
    let metrics = deployment.clouds.iter().map(|c| c.metrics().snapshot());
    let (puts, gets, egress) = metrics.fold((0, 0, 0), |(puts, gets, egress), m| {
        (puts + m.puts, gets + m.gets, egress + m.bytes_out)
    });
    OpCost {
        puts,
        gets,
        egress: Bytes::new(egress),
        accesses,
        cost: charged(deployment) + COORDINATION_ACCESS * accesses as f64,
    }
}

/// Figure 11's measurements of one file on one backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileCosts {
    /// A blocking write of the whole file: open, write, close.
    pub write: OpCost,
    /// A whole-file read by another process of the deployment, caches cold.
    pub cold_read: OpCost,
    /// The same reader reading the file again once its metadata cache
    /// expired: the chunks come from its local cache.
    pub cached_read: OpCost,
    /// What the clouds charge per day to store the written version.
    pub storage_per_day: MicroDollars,
}

/// Measures one file of `size` incompressible bytes on the paper's
/// `backend` deployment: a blocking write by one mount, then, once its clock
/// is past the writer's close, a cold read by a mount on
/// [`Deployment::second_instance`] (whose DepSky client has not cached the
/// records the writer wrote), then a cached re-read by that reader after its
/// metadata cache expired.
pub fn file_costs(backend: Backend, size: Bytes, seed: u64) -> FileCosts {
    const PATH: &str = "/file";
    let deployment = Deployment::paper(backend, seed);
    let config = ScfsConfig::paper_default(Mode::Blocking);
    let data = DetRng::new(seed).bytes(size.get() as usize);

    let mut writer = deployment.mount("alice", config.clone(), 1);
    let write = spent_on(&deployment, || {
        writer
            .write_file(PATH, &data)
            .expect("a write succeeds on fault-free clouds");
    });
    let storage_per_day = rent(&deployment, 1.0);

    let mut reader = deployment
        .second_instance()
        .mount("alice", config.clone(), 2);
    reader.sleep(writer.now().duration_since(reader.now()));
    let read = |reader: &mut ScfsAgent| {
        let back = reader
            .read_file(PATH)
            .expect("a read succeeds on fault-free clouds");
        assert!(back == data, "the reader reads what the writer wrote");
    };
    let cold_read = spent_on(&deployment, || read(&mut reader));
    reader.sleep(config.metadata_cache_expiry + SimDuration::from_millis(1));
    let cached_read = spent_on(&deployment, || read(&mut reader));
    FileCosts {
        write,
        cold_read,
        cached_read,
        storage_per_day,
    }
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

/// Figure 11(b): cost per read/write operation vs. file size (micro-dollars),
/// and the requests each operation made, measured by [`file_costs`]. The
/// cached read is the AWS reader's; the CoC reader's costs the same.
pub fn figure11b(seed: u64) -> Table {
    let columns = [
        "CoC read",
        "AWS read",
        "CoC write",
        "AWS write",
        "cached read",
    ];
    let mut headers = vec!["file size".to_string()];
    headers.extend(columns.map(String::from));
    headers.extend(columns.map(|op| format!("{op} reqs")));
    let mut table = Table::new(
        "Figure 11(b): cost per operation (micro-dollars; a reqs cell is cloud PUTs/GETs/egress/coordination accesses)",
        headers,
    );
    for size in figure11_sizes() {
        let coc = file_costs(Backend::CloudOfClouds, size, seed);
        let aws = file_costs(Backend::Aws, size, seed);
        let ops = [
            coc.cold_read,
            aws.cold_read,
            coc.write,
            aws.write,
            aws.cached_read,
        ];
        let mut row = vec![size.to_string()];
        row.extend(ops[..4].iter().map(|op| format!("{:.1}", op.cost.get())));
        row.push(format!("{:.2}", ops[4].cost.get()));
        row.extend(ops.map(|op| format!("{}/{}/{}/{}", op.puts, op.gets, op.egress, op.accesses)));
        table.push_row(row);
    }
    table
}

/// Figure 11(c): storage cost per file version per day (micro-dollars),
/// measured as what each cloud stores after the write of [`file_costs`].
pub fn figure11c(seed: u64) -> Table {
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
        let coc = file_costs(Backend::CloudOfClouds, size, seed)
            .storage_per_day
            .get();
        let aws = file_costs(Backend::Aws, size, seed).storage_per_day.get();
        table.push_row(vec![
            size.to_string(),
            format!("{coc:.1}"),
            format!("{aws:.1}"),
            format!("{:.2}", coc / aws),
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
    let month = charged(deployment) * month_factor + rent(deployment, 30.0);
    month.as_dollars() / report.mounts as f64
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use cloud_store::pricing::PriceBook;

    use super::*;

    #[test]
    fn figure11a_matches_paper_numbers() {
        let t = figure11a();
        assert_eq!(t.cell("Large", "EC2"), Some("$6.24"));
        assert_eq!(t.cell("Large", "CoC"), Some("$39.60"));
        assert_eq!(t.cell("Extra Large", "CoC"), Some("$77.04"));
        assert_eq!(t.cell("Extra Large", "capacity (files)"), Some("15M"));
    }

    /// Any seed: on fault-free clouds no count or price depends on it.
    const SEED: u64 = 7;

    /// A 30 MiB file on `backend`, measured once for every test that reads
    /// it.
    fn thirty_mib(backend: Backend) -> FileCosts {
        static COC: OnceLock<FileCosts> = OnceLock::new();
        static AWS: OnceLock<FileCosts> = OnceLock::new();
        let measured = match backend {
            Backend::CloudOfClouds => &COC,
            Backend::Aws => &AWS,
        };
        *measured.get_or_init(|| file_costs(backend, Bytes::mib(30), SEED))
    }

    #[test]
    fn figure11b_read_costs_dominate_write_costs_for_large_files() {
        let coc = thirty_mib(Backend::CloudOfClouds);
        let (read, write) = (coc.cold_read.cost.get(), coc.write.cost.get());
        assert!(read > write * 10.0, "read {read} µ$, write {write} µ$");
    }

    #[test]
    fn figure11c_coc_premium_is_about_fifty_percent() {
        let per_day = |backend| file_costs(backend, Bytes::mib(20), SEED).storage_per_day;
        let ratio = per_day(Backend::CloudOfClouds).get() / per_day(Backend::Aws).get();
        assert!((1.3..1.7).contains(&ratio), "CoC/AWS storage {ratio}");
    }

    /// The premium holds at both ends of the sweep: each chunk is stored
    /// as three half-size blocks, whatever the file's size.
    #[test]
    fn coc_storage_is_about_1_5x_aws_storage() {
        let ratio =
            |coc: FileCosts, aws: FileCosts| coc.storage_per_day.get() / aws.storage_per_day.get();
        let small = |backend| file_costs(backend, Bytes::mib(1), SEED);
        let ratios = [
            ratio(small(Backend::CloudOfClouds), small(Backend::Aws)),
            ratio(thirty_mib(Backend::CloudOfClouds), thirty_mib(Backend::Aws)),
        ];
        for ratio in ratios {
            assert!((1.3..1.7).contains(&ratio), "CoC/AWS storage {ratios:?}");
        }
    }

    /// The paper's price of a cold AWS read, which the measurement keeps:
    /// one coordination access, one GET per object (30 chunks and the
    /// manifest object) and the file's bytes at S3's egress price.
    #[test]
    fn figure11b_an_aws_cold_read_costs_what_the_paper_prices() {
        let s3 = PriceBook::amazon_s3();
        let size = Bytes::mib(30);
        let paper = COORDINATION_ACCESS + s3.get_op_cost() * 31.0 + s3.download_cost(size);
        let read = thirty_mib(Backend::Aws).cold_read;
        assert_eq!((read.gets, read.accesses), (31, 1));
        let error = (read.cost.get() - paper.get()).abs() / paper.get();
        assert!(error < 0.01, "measured {}, paper {paper}", read.cost);
    }

    /// A cold CoC read races `f + 1` = 2 block holders per chunk, and reads
    /// the manifest object's four records and two blocks: the second
    /// instance has not cached the records the writer wrote.
    #[test]
    fn figure11b_a_cold_coc_read_is_two_gets_per_chunk_and_the_manifest() {
        let read = thirty_mib(Backend::CloudOfClouds).cold_read;
        assert_eq!(
            (read.puts, read.gets, read.accesses),
            (0, 30 * 2 + 4 + 2, 1)
        );
    }

    #[test]
    fn figure11b_a_cached_read_is_one_access_and_no_get() {
        for backend in [Backend::Aws, Backend::CloudOfClouds] {
            let cached = file_costs(backend, Bytes::mib(1), SEED).cached_read;
            assert_eq!(
                (cached.puts, cached.gets, cached.accesses),
                (0, 0, 1),
                "{backend:?}"
            );
            assert_eq!(cached.cost, COORDINATION_ACCESS, "{backend:?}");
        }
    }

    #[test]
    fn figure11_rows_repeat_per_seed() {
        for backend in [Backend::Aws, Backend::CloudOfClouds] {
            let measure = || file_costs(backend, Bytes::mib(1), SEED);
            assert_eq!(measure(), measure(), "{backend:?}");
        }
    }

    /// Where the measured system departs from the paper's flat write: this
    /// one chunks files at 1 MiB and stores each chunk as an object (three
    /// blocks on the cloud-of-clouds), plus a manifest object once the file
    /// is over 12 chunks (three blocks and four DepSky records), and a
    /// write makes five coordination accesses.
    #[test]
    fn figure11b_a_write_costs_one_put_per_chunk() {
        for (backend, one, thirty) in [(Backend::Aws, 1, 31), (Backend::CloudOfClouds, 3, 97)] {
            let small = file_costs(backend, Bytes::mib(1), SEED).write;
            let large = thirty_mib(backend).write;
            assert_eq!((small.puts, large.puts), (one, thirty), "{backend:?}");
            assert_eq!((small.accesses, large.accesses), (5, 5), "{backend:?}");
        }
    }

    #[test]
    fn table1_has_four_levels() {
        assert_eq!(table1().rows.len(), 4);
    }
}
