//! Integration tests asserting that the reproduced experiments have the same
//! *shape* as the paper's results (who wins, by roughly what factor). These
//! are reduced-size versions of the tables regenerated by `reproduce`.

use scfs_repro::scfs::config::Mode;
use scfs_repro::sim_core::time::SimDuration;
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::filebench::{run_microbenchmarks, MicroBenchConfig};
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
