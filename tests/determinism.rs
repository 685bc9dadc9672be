//! Regression tests for whole-run determinism after the ordered-container
//! sweep (now `clippy::iter_over_hash_type`, README "Static analysis"): every map the agent, chunk store, metadata
//! service or DepSky register iterates is now a `BTreeMap`/`BTreeSet`, so a
//! fleet run's trace must be a pure function of its seed — across repeated
//! runs in one process and regardless of std's per-process `HashMap` seed.
//!
//! The trace hash folds every `(mount, op, file, instant)` tuple through
//! FNV-1a, so any iteration-order leak anywhere on the simulated data or
//! metadata path shows up as a hash mismatch here.

use scfs_repro::coord::sharded::ShardTopology;
use scfs_repro::workloads::fleet::{
    run_fleet, run_fleet_metadata, FleetConfig, FleetReport, MetadataFleetConfig,
    MetadataFleetReport,
};
use scfs_repro::workloads::setup::{Backend, Deployment, Plane};

/// The data fleet's smoke run on the paper deployment of `backend`.
fn data_fleet(backend: Backend, cfg: &FleetConfig) -> FleetReport {
    run_fleet(&Deployment::paper(backend, cfg.seed), cfg)
}

/// The metadata fleet's smoke run over four instantaneous register groups.
fn metadata_fleet(cfg: &MetadataFleetConfig) -> MetadataFleetReport {
    let deployment = Deployment::on(Backend::Aws)
        .plane(Plane::Sharded(ShardTopology::test(4)))
        .build(cfg.seed);
    run_fleet_metadata(&deployment, cfg)
}

/// Two runs of the same data-plane fleet config replay byte-identically, on
/// both backends (the cloud-of-clouds path exercises `depsky::register`'s metadata
/// cache, the AWS path the plain chunk store).
#[test]
fn data_fleet_trace_is_seed_deterministic() {
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let cfg = FleetConfig::smoke();
        let a = data_fleet(backend, &cfg);
        let b = data_fleet(backend, &cfg);
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "{backend:?}: same seed, same trace"
        );
        assert_eq!(a.reads, b.reads, "{backend:?}");
        assert_eq!(a.writes, b.writes, "{backend:?}");
        assert_eq!(a.lock_conflicts, b.lock_conflicts, "{backend:?}");
        assert_eq!(a.makespan, b.makespan, "{backend:?}");
        assert_eq!(a.bytes_downloaded, b.bytes_downloaded, "{backend:?}");
        assert_eq!(a.bytes_uploaded, b.bytes_uploaded, "{backend:?}");
        assert_eq!(a.chunk_downloads, b.chunk_downloads, "{backend:?}");
        assert_eq!(a.cache.memory, b.cache.memory, "{backend:?}");
        assert_eq!(a.cache.disk, b.cache.disk, "{backend:?}");
    }
}

/// Same for the metadata-heavy fleet: the sharded coordination plane (ABD
/// quorums, router, per-shard registers) replays byte-identically, and a
/// different seed reshuffles the trace.
#[test]
fn metadata_fleet_trace_is_seed_deterministic() {
    let cfg = MetadataFleetConfig::smoke();
    let a = metadata_fleet(&cfg);
    let b = metadata_fleet(&cfg);
    assert_eq!(a.trace_hash, b.trace_hash, "same seed, same trace");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.opens, b.opens);
    assert_eq!(a.mkdirs, b.mkdirs);
    assert_eq!(a.renames, b.renames);
    assert_eq!(a.conflicts, b.conflicts);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.recorder.total_count(), b.recorder.total_count());

    let mut other = cfg;
    other.seed ^= 0x0DD5_EED5;
    let c = metadata_fleet(&other);
    assert_ne!(a.trace_hash, c.trace_hash, "a new seed must reshuffle");
}

/// Golden pins: the tests above only prove a build agrees with itself. These
/// constants are recorded so that a refactor which shifts every instant
/// *consistently* still fails tier-1. A PR that moves the virtual clock on
/// purpose re-pins them and says why in CHANGES.md — last done when versions
/// whose manifest rides in the metadata tuple stopped storing a manifest
/// object: every workload here commits only such versions, so half the PUTs
/// (and every draw they took from the clouds' latency streams) are gone.
mod golden {
    use super::*;
    use scfs_repro::scfs::config::{Mode, ScfsConfig};
    use scfs_repro::scfs::fs::FileSystem;
    use scfs_repro::sim_core::units::Bytes;
    use scfs_repro::workloads::filesync::{durable_save, run_file_sync, LockFilePlacement};
    use scfs_repro::workloads::setup::build_scfs;

    #[test]
    fn data_fleet_smoke_matches_the_pinned_trace() {
        for (backend, trace_hash, makespan_ns) in [
            (Backend::Aws, 3258201416117948381u64, 473332502952u64),
            (Backend::CloudOfClouds, 9334592592812106320, 473793421013),
        ] {
            let report = data_fleet(backend, &FleetConfig::smoke());
            assert_eq!(
                (report.trace_hash, report.makespan.as_nanos()),
                (trace_hash, makespan_ns),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn metadata_fleet_smoke_matches_the_pinned_trace() {
        let report = metadata_fleet(&MetadataFleetConfig::smoke());
        assert_eq!(
            (report.trace_hash, report.makespan.as_nanos()),
            (8530320169238504625, 688230371)
        );
    }

    /// The two modes no benchmark workload mounts: one Figure 8 file-sync
    /// run each on the cloud-of-clouds, then a durable save (`sync` waiting on
    /// a background commit) and a manifest-only `copy_file`, pinned at the
    /// foreground instant the run ends and at the instant its last
    /// background job lands.
    #[test]
    fn background_modes_file_sync_matches_the_pinned_instants() {
        for (mode, end_ns, drain_ns) in [
            (Mode::NonBlocking, 3104267807u64, 3310090141u64),
            (Mode::NonSharing, 948543123, 948543123),
        ] {
            let mut fs = build_scfs(Backend::CloudOfClouds, ScfsConfig::paper_default(mode), 42);
            run_file_sync(
                &mut fs,
                Bytes::kib(1200),
                LockFilePlacement::InFileSystem,
                42,
            )
            .expect("file sync runs");
            durable_save(&mut fs, Bytes::mib(3), 43).expect("durable save runs");
            fs.copy_file("/docs/durable-43.odt", "/docs/copy-43.odt")
                .expect("copy runs");
            assert_eq!(
                (
                    fs.now().as_nanos(),
                    fs.background_drain_instant().as_nanos()
                ),
                (end_ns, drain_ns),
                "{mode:?}"
            );
        }
    }
}
