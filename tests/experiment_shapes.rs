//! Integration tests asserting that the reproduced experiments have the same
//! *shape* as the paper's results (who wins, by roughly what factor), at
//! reduced sizes.
//!
//! Where each `reproduce` selector's shape is stated:
//!
//! | selector | test |
//! | --- | --- |
//! | `table1` | `workloads::costs::tests::table1_has_four_levels` |
//! | `table3` | [`table3_shape_metadata_benchmarks_separate_shared_from_single_user_systems`] |
//! | `fig8` | `workloads::filesync::tests`: `blocking_scfs_is_dominated_by_lock_files`, `non_sharing_variant_behaves_like_a_local_file_system`, `durable_save_promotes_non_blocking_mode_to_cloud_level` |
//! | `fig9` | [`figure9_shape_blocking_shares_fastest_dropbox_slowest`] |
//! | `fig10a`, `fig10b` (`fig10`) | [`figure10_shape_cache_and_pns_both_matter`] |
//! | `fig11a` | `workloads::costs::tests::figure11a_matches_paper_numbers` |
//! | `fig11b` | `workloads::costs::tests::figure11b_read_costs_dominate_write_costs_for_large_files` |
//! | `fig11c` | `workloads::costs::tests::figure11c_coc_premium_is_about_fifty_percent` |
//!
//! Two claims have no `reproduce` section: that metadata throughput scales
//! with shards is
//! `tests/metadata_plane.rs::metadata_fleet_throughput_scales_with_shards`,
//! and the placement claims over the seven-provider matrix are the
//! `placement_shape_*` tests below.

use scfs_repro::placement::PolicyKind;
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::costs::{dollars_per_user_month, matrix_deployment, MatrixSweep};
use scfs_repro::workloads::filebench::{run_microbenchmarks, MicroBenchConfig};
use scfs_repro::workloads::fleet::{run_fleet, FleetConfig};
use scfs_repro::workloads::setup::{build_system, Backend, SystemKind};
use scfs_repro::workloads::sharing::{measure_sharing, SharingSystem};
use scfs_repro::workloads::sweeps::{metadata_cache_point, pns_sharing_point, SweepConfig};

#[test]
fn table3_shape_metadata_benchmarks_separate_shared_from_single_user_systems() {
    let cfg = MicroBenchConfig::quick();
    let mut results = std::collections::BTreeMap::new();
    for kind in [
        SystemKind::Scfs(Backend::Aws, Mode::NonSharing),
        SystemKind::Scfs(Backend::Aws, Mode::Blocking),
        SystemKind::Scfs(Backend::CloudOfClouds, Mode::Blocking),
        SystemKind::Scfs(Backend::CloudOfClouds, Mode::NonBlocking),
        SystemKind::S3fs,
        SystemKind::S3ql,
        SystemKind::LocalFs,
    ] {
        let mut fs = build_system(kind, 2024);
        results.insert(kind.label(), run_microbenchmarks(fs.as_mut(), &cfg, 2024));
    }

    // Single-user systems (NS, S3QL, LocalFS) create files orders of
    // magnitude faster than the shared/blocking systems.
    let local = results["LocalFS"].create_files;
    let ns = results["SCFS-AWS-NS"].create_files;
    let aws_b = results["SCFS-AWS-B"].create_files;
    let coc_b = results["SCFS-CoC-B"].create_files;
    let coc_nb = results["SCFS-CoC-NB"].create_files;
    let s3fs = results["S3FS"].create_files;
    assert!(ns < aws_b / 20.0, "NS {ns} vs AWS-B {aws_b}");
    assert!(local < aws_b / 20.0);
    // Blocking is slower than non-blocking; CoC-B slower than AWS-B; S3FS slowest.
    assert!(coc_nb < coc_b);
    assert!(aws_b < coc_b);
    assert!(
        s3fs > aws_b,
        "S3FS {s3fs} should be the slowest (AWS-B {aws_b})"
    );

    // S3QL random writes pay the sub-chunk penalty (slowest random writer).
    let s3ql_rw = results["S3QL"].random_write;
    let local_rw = results["LocalFS"].random_write;
    assert!(
        s3ql_rw > local_rw * 2.5,
        "S3QL {s3ql_rw} vs LocalFS {local_rw}"
    );
}

#[test]
fn figure9_shape_blocking_shares_fastest_dropbox_slowest() {
    let size = Bytes::kib(256);
    let coc_b = measure_sharing(SharingSystem::CocBlocking, size, 3, 31);
    let coc_nb = measure_sharing(SharingSystem::CocNonBlocking, size, 3, 31);
    let dropbox = measure_sharing(SharingSystem::Dropbox, size, 20, 31);
    assert!(coc_b.p50 < coc_nb.p50);
    assert!(coc_nb.p50 < dropbox.p50);
    assert!(dropbox.p90 >= dropbox.p50);
}

#[test]
fn figure10_shape_cache_and_pns_both_matter() {
    let cfg = SweepConfig::quick();
    // (a) disabling the metadata cache degrades the metadata-intensive runs.
    let no_cache = metadata_cache_point(SimDuration::ZERO, cfg, 8);
    let with_cache = metadata_cache_point(SimDuration::from_millis(500), cfg, 8);
    assert!(no_cache.copy_s > with_cache.copy_s);

    // (b) with PNS, fewer shared files means fewer coordination accesses.
    let all_shared = pns_sharing_point(1.0, cfg, 8);
    let quarter_shared = pns_sharing_point(0.25, cfg, 8);
    let none_shared = pns_sharing_point(0.0, cfg, 8);
    assert!(quarter_shared.create_s < all_shared.create_s);
    assert!(none_shared.create_s < quarter_shared.create_s);
    // The paper reports roughly 2.5x improvement at 25% sharing.
    let speedup = all_shared.create_s / quarter_shared.create_s;
    assert!(speedup > 1.8, "speedup at 25% sharing was {speedup:.2}");
}

/// What one placement run over the provider matrix measured.
struct Placed {
    dollars_per_user_month: f64,
    /// Fraction of reads within 3.5 s, looser than the policy's 2.5 s SLO
    /// because a measured read also pays the syscall and the anchor round.
    slo_compliance: f64,
    read_p99: f64,
}

/// The SLO-gated policy, at a 2.5 s placement SLO.
const CHEAPEST_QUORUM: PolicyKind = PolicyKind::CheapestQuorum { slo_millis: 2_500 };

/// A zipfian fleet of 24 mounts in 4 teams over 4 KiB files, 80 % reads,
/// on the matrix in `sweep`'s condition under `policy`. The caches are one
/// byte, so every read reaches the clouds and the run measures placement.
fn placed(sweep: MatrixSweep, policy: PolicyKind) -> Placed {
    let mut cfg = FleetConfig::smoke();
    cfg.mounts = 24;
    cfg.teams = 4;
    cfg.files_per_team = 12;
    cfg.file_size = Bytes::kib(4);
    cfg.ops_per_mount = 16;
    cfg.read_fraction = 0.8;
    cfg.mean_think = SimDuration::from_secs(20);
    cfg.scfs = ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::new(1), Bytes::new(1));
    cfg.seed = 0x4D41_5452;
    let deployment = matrix_deployment(sweep, policy, cfg.seed);
    let mut report = run_fleet(&deployment, &cfg);
    let slo_compliance = report.recorder.summary("read").map_or(1.0, |reads| {
        let samples = reads.samples();
        let within = samples.iter().filter(|&&secs| secs <= 3.5).count();
        within as f64 / samples.len().max(1) as f64
    });
    Placed {
        dollars_per_user_month: dollars_per_user_month(&deployment, &report),
        slo_compliance,
        read_p99: report.recorder.percentile("read", 99.0),
    }
}

#[test]
fn placement_shape_cheapest_quorum_costs_less_at_equal_slo_compliance() {
    let all = placed(MatrixSweep::Healthy, PolicyKind::AllClouds);
    let cheapest = placed(MatrixSweep::Healthy, CHEAPEST_QUORUM);
    assert!(
        cheapest.dollars_per_user_month < all.dollars_per_user_month,
        "cheapest_quorum ${:.4} vs all_clouds ${:.4} per user-month",
        cheapest.dollars_per_user_month,
        all.dollars_per_user_month
    );
    assert!(
        (cheapest.slo_compliance - all.slo_compliance).abs() <= 0.02,
        "the cost cut traded away SLO compliance: {:.4} vs {:.4}",
        cheapest.slo_compliance,
        all.slo_compliance
    );
}

#[test]
fn placement_shape_cheapest_quorum_stays_cheaper_under_a_price_hike() {
    let all = placed(MatrixSweep::PriceyFlaky, PolicyKind::AllClouds);
    let cheapest = placed(MatrixSweep::PriceyFlaky, CHEAPEST_QUORUM);
    assert!(
        cheapest.dollars_per_user_month < all.dollars_per_user_month,
        "cheapest_quorum ${:.4} vs all_clouds ${:.4} per user-month",
        cheapest.dollars_per_user_month,
        all.dollars_per_user_month
    );
}

/// A block holder turning 10x slower stalls the fixed placement, while
/// `FastestRead` routes around it.
#[test]
fn placement_shape_fastest_read_routes_around_a_slow_cloud() {
    let p99 = |sweep, policy| placed(sweep, policy).read_p99;
    let all_healthy = p99(MatrixSweep::Healthy, PolicyKind::AllClouds);
    let all_slow = p99(MatrixSweep::SlowS3, PolicyKind::AllClouds);
    assert!(
        all_slow >= 3.0 * all_healthy,
        "all_clouds read p99 {all_healthy:.3}s → {all_slow:.3}s, expected ≥ 3x"
    );
    let fast_healthy = p99(MatrixSweep::Healthy, PolicyKind::FastestRead);
    let fast_slow = p99(MatrixSweep::SlowS3, PolicyKind::FastestRead);
    assert!(
        fast_slow <= 1.5 * fast_healthy,
        "fastest_read read p99 {fast_healthy:.3}s → {fast_slow:.3}s, expected ≤ 1.5x"
    );
}
