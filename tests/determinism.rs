//! Whole-run determinism, and the golden pins of the fleets and the
//! background modes.
//!
//! Every map the agent, chunk store, metadata service or DepSky register
//! iterates is ordered (`clippy::iter_over_hash_type`, README "Static
//! analysis"), so a fleet run's trace is a pure function of its seed —
//! across repeated runs in one process and regardless of std's per-process
//! `HashMap` seed. The trace hash folds every `(mount, op, file, instant)`
//! tuple through FNV-1a, so any iteration-order leak anywhere on the
//! simulated data or metadata path shows up as a hash mismatch here.
//!
//! Self-agreement only proves a build agrees with itself; [`golden`] checks
//! the runs against the one ledger of pins, `tests/pins/mod.rs`.

mod pins;

use pins::{data_fleet, metadata_fleet};
use scfs_repro::workloads::fleet::{FleetConfig, MetadataFleetConfig};
use scfs_repro::workloads::setup::Backend;

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

/// Each run's values against the `PINS` ledger. A moved clock fails every
/// run it moved, and each failure prints the same old → new table and
/// replacement block.
mod golden {
    use super::pins::{assert_pins_hold, data_fleet_pins, file_sync_pins, metadata_fleet_pins};

    #[test]
    fn data_fleet_smoke_matches_the_pinned_trace() {
        assert_pins_hold(&data_fleet_pins());
    }

    #[test]
    fn metadata_fleet_smoke_matches_the_pinned_trace() {
        assert_pins_hold(&metadata_fleet_pins());
    }

    #[test]
    fn background_modes_file_sync_matches_the_pinned_instants() {
        assert_pins_hold(&file_sync_pins());
    }
}
