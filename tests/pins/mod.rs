//! The ledger of what the virtual clock promises, shared by the test
//! binaries that check it (`mod pins;`).
//!
//! Self-agreement only proves a build agrees with itself, so [`PINS`]
//! records what the virtual clock produced: a refactor that shifts every
//! instant *consistently* still fails tier-1. Each pinned test measures its
//! own runs and hands them to [`assert_pins_hold`]; on a mismatch that
//! measures every pin and prints the moved ones as an old → new Markdown
//! table for CHANGES.md, and the replacement `PINS` block to paste over the
//! one below. A change that moves the clock on purpose re-pins with
//! `cargo test --test determinism --test metadata_plane` and a diff of this
//! file.

use std::fmt::Write as _;

use scfs_repro::cloud_store::store::OpCtx;
use scfs_repro::cloud_store::types::{Acl, Permission};
use scfs_repro::coord::replication::ReplicationConfig;
use scfs_repro::coord::service::{CoordinationService, SessionId};
use scfs_repro::coord::sharded::{ShardTopology, ShardedCoordinator};
use scfs_repro::scfs::config::{Mode, ScfsConfig};
use scfs_repro::scfs::fs::FileSystem;
use scfs_repro::sim_core::fault::FaultPlan;
use scfs_repro::sim_core::rng::DetRng;
use scfs_repro::sim_core::time::{Clock, SimDuration, SimInstant};
use scfs_repro::sim_core::units::Bytes;
use scfs_repro::workloads::filesync::{durable_save, run_file_sync, LockFilePlacement};
use scfs_repro::workloads::fleet::{
    run_fleet, run_fleet_metadata, FleetConfig, FleetReport, MetadataFleetConfig,
    MetadataFleetReport,
};
use scfs_repro::workloads::setup::{build_scfs, Backend, Deployment, Plane};

/// Every golden pin, in the order [`measure_pins`] measures them. Last moved
/// when a close stopped waiting for its lock release: a blocking dirty close
/// returns at the anchor update, so each data-fleet mount issues its next
/// call one coordination write earlier; and a clean close of a write-opened
/// handle sends its release on the object's lane, behind the in-flight
/// commit, so Figure 8's non-blocking reopen of the document waits for that
/// commit instead of re-entering a lock it is about to lose.
const PINS: &[(&str, u64)] = &[
    ("data_fleet.AWS.trace_hash", 0xf6d9_03eb_b994_627d),
    ("data_fleet.AWS.makespan_ns", 473079612301),
    ("data_fleet.CoC.trace_hash", 0xde60_ddff_e4b8_8a10),
    ("data_fleet.CoC.makespan_ns", 473729443683),
    ("metadata_fleet.trace_hash", 0x7661_c8ff_93cf_a4b1),
    ("metadata_fleet.makespan_ns", 688230371),
    ("file_sync.NonBlocking.end_ns", 3424808060),
    ("file_sync.NonBlocking.drain_ns", 3600466998),
    ("file_sync.NonSharing.end_ns", 948543123),
    ("file_sync.NonSharing.drain_ns", 948543123),
    ("fault_paths.digest", 0xbaf3_3e23_a83c_f241),
];

/// The data fleet on the paper deployment of `backend`.
pub fn data_fleet(backend: Backend, cfg: &FleetConfig) -> FleetReport {
    run_fleet(&Deployment::paper(backend, cfg.seed), cfg)
}

/// The metadata fleet over four instantaneous register groups.
pub fn metadata_fleet(cfg: &MetadataFleetConfig) -> MetadataFleetReport {
    let deployment = Deployment::on(Backend::Aws)
        .plane(Plane::Sharded(ShardTopology::test(4)))
        .build(cfg.seed);
    run_fleet_metadata(&deployment, cfg)
}

/// The data fleet's smoke run on each backend's paper deployment: its trace
/// hash and makespan.
pub fn data_fleet_pins() -> Vec<(String, u64)> {
    let mut pins = Vec::new();
    for backend in [Backend::Aws, Backend::CloudOfClouds] {
        let report = data_fleet(backend, &FleetConfig::smoke());
        let run = format!("data_fleet.{}", backend.label());
        pins.push((format!("{run}.trace_hash"), report.trace_hash));
        pins.push((format!("{run}.makespan_ns"), report.makespan.as_nanos()));
    }
    pins
}

/// The metadata fleet's smoke run: its trace hash and makespan.
pub fn metadata_fleet_pins() -> Vec<(String, u64)> {
    let report = metadata_fleet(&MetadataFleetConfig::smoke());
    vec![
        ("metadata_fleet.trace_hash".into(), report.trace_hash),
        (
            "metadata_fleet.makespan_ns".into(),
            report.makespan.as_nanos(),
        ),
    ]
}

/// The two modes no benchmark workload mounts: one Figure 8 file-sync run
/// each on the cloud-of-clouds, then a durable save (`sync` waiting on a
/// background commit) and a manifest-only `copy_file`, at the foreground
/// instant the run ends and at the instant its last background job lands.
pub fn file_sync_pins() -> Vec<(String, u64)> {
    let mut pins = Vec::new();
    for mode in [Mode::NonBlocking, Mode::NonSharing] {
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
        let run = format!("file_sync.{mode:?}");
        pins.push((format!("{run}.end_ns"), fs.now().as_nanos()));
        let drain = fs.background_drain_instant().as_nanos();
        pins.push((format!("{run}.drain_ns"), drain));
    }
    pins
}

/// The coordination plane's fault paths ([`fault_path_digest`]).
pub fn fault_path_pins() -> Vec<(String, u64)> {
    vec![("fault_paths.digest".into(), fault_path_digest())]
}

/// Every pin, in [`PINS`] order.
fn measure_pins() -> Vec<(String, u64)> {
    [
        data_fleet_pins(),
        metadata_fleet_pins(),
        file_sync_pins(),
        fault_path_pins(),
    ]
    .concat()
}

/// Asserts that every pin in `measured` holds its [`PINS`] value. On a
/// mismatch it measures every pin, so each failing test prints the same
/// complete re-pin.
pub fn assert_pins_hold(measured: &[(String, u64)]) {
    let holds = measured.iter().all(|(name, value)| {
        PINS.iter()
            .any(|&(pin, pinned)| pin == name && pinned == *value)
    });
    assert!(holds, "{}", re_pin(&measure_pins()));
}

/// How a pin is spelled in [`PINS`]: instants in decimal nanoseconds, hashes
/// in hex.
fn literal(name: &str, value: u64) -> String {
    if name.ends_with("_ns") {
        return value.to_string();
    }
    let hex = format!("{value:016x}");
    format!(
        "0x{}_{}_{}_{}",
        &hex[..4],
        &hex[4..8],
        &hex[8..12],
        &hex[12..]
    )
}

/// The re-pin a moved clock needs: the moved (or new) pins as an old → new
/// Markdown table, then the `PINS` block that holds `measured`.
fn re_pin(measured: &[(String, u64)]) -> String {
    let mut out =
        String::from("the golden pins moved\n\n| pin | old | new |\n| --- | --- | --- |\n");
    for (name, value) in measured {
        let old = PINS.iter().find(|(pin, _)| pin == name);
        let old = old.map_or("—".into(), |&(_, old)| literal(name, old));
        let new = literal(name, *value);
        if old != new {
            writeln!(out, "| `{name}` | {old} | {new} |").ok();
        }
    }
    out.push_str("\nconst PINS: &[(&str, u64)] = &[\n");
    for (name, value) in measured {
        writeln!(out, "    (\"{name}\", {}),", literal(name, *value)).ok();
    }
    out.push_str("];\n");
    out
}

// ---------------------------------------------------------------------------
// Fault paths a fault-free run never takes
// ---------------------------------------------------------------------------

/// Folds `bytes` into a running FNV-1a digest.
fn fnv1a_fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Calls are a virtual second apart — far more than any call takes.
fn step_instant(step: u64) -> SimInstant {
    SimInstant::from_secs(1 + step)
}

/// A seeded random mix of every coordination call, by two accounts, on a
/// few directories and their lock keys, one call a virtual second; each
/// `(call, result, clock.now())` is folded into `digest`.
fn fold_random_calls(plane: &ShardedCoordinator, seed: u64, mut digest: u64) -> u64 {
    let mut rng = DetRng::new(seed);
    let mut clock = Clock::new();
    for step in 0..80 {
        let who = if rng.next_below(4) == 0 {
            "bob"
        } else {
            "alice"
        };
        clock.advance_to(step_instant(step));
        let mut ctx = OpCtx::new(&mut clock, who.into());
        let dir = rng.next_below(4);
        let name = rng.next_below(3);
        let key = format!("/scfs/meta/d{dir}/k{name}");
        let lock = format!("/scfs/locks/d{dir}/k{name}");
        let value = rng.next_u64().to_le_bytes().to_vec();
        let (call, result) = match rng.next_below(8) {
            0 => ("put", format!("{:?}", plane.put(&mut ctx, &key, value))),
            1 => ("get", format!("{:?}", plane.get(&mut ctx, &key))),
            2 => {
                let expected = match rng.next_below(3) {
                    0 => None,
                    _ => plane.get(&mut ctx, &key).ok().map(|entry| entry.version),
                };
                let cas = plane.cas(&mut ctx, &key, expected, value);
                ("cas", format!("{expected:?} {cas:?}"))
            }
            3 => {
                let target = if rng.next_below(2) == 0 { &key } else { &lock };
                ("delete", format!("{:?}", plane.delete(&mut ctx, target)))
            }
            4 => {
                let session = SessionId::new(format!("{who}-{step}"));
                let lease = SimDuration::from_secs(1 + rng.next_below(4));
                let created = plane.create_ephemeral(&mut ctx, &lock, value, &session, lease);
                ("create_ephemeral", format!("{created:?}"))
            }
            5 => {
                let mut acl = Acl::private();
                let grant = [Permission::Read, Permission::Write][rng.next_below(2) as usize];
                acl.grant("bob".into(), grant);
                (
                    "set_acl",
                    format!("{:?}", plane.set_acl(&mut ctx, &key, acl)),
                )
            }
            6 => {
                let prefix = format!("/scfs/meta/d{dir}/");
                ("list", format!("{:?}", plane.list(&mut ctx, &prefix)))
            }
            _ => {
                let from = format!("/scfs/meta/d{dir}");
                let to = format!("/scfs/meta/d{}", (dir + 1 + rng.next_below(3)) % 4);
                let renamed = plane.rename_prefix(&mut ctx, &from, &to);
                ("rename_prefix", format!("{from} {to} {renamed:?}"))
            }
        };
        let line = format!(
            "{step} {who} {call} {key}: {result} @ {:?}",
            ctx.clock.now()
        );
        digest = fnv1a_fold(digest, line.as_bytes());
    }
    fnv1a_fold(digest, &plane.entry_count().to_le_bytes())
}

/// Write-back, garbled votes, the `list` union of replicas that disagree
/// and the collect merge of a rename, on two 2-shard planes: a crash-tolerant
/// one with a replica partitioned for a window in one group and a replica
/// crashed in the other, and a Byzantine one with a lying replica in each
/// group. Every call's result and completion instant are folded into one
/// digest, so a change to any fault path's votes, replies or timing moves it.
fn fault_path_digest() -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for seed in 0..4 {
        let crash = ShardedCoordinator::new(ShardTopology::metro(2, 1), seed).unwrap();
        let outage = FaultPlan::outage(step_instant(10), step_instant(35));
        crash.set_replica_fault(0, 1, outage, 3);
        crash.set_replica_fault(1, 2, FaultPlan::crash_at(step_instant(50)), 5);
        digest = fold_random_calls(&crash, seed, digest);

        let byzantine = ShardTopology::new(2, ReplicationConfig::coc_byzantine());
        let byzantine = ShardedCoordinator::new(byzantine, seed).unwrap();
        byzantine.set_replica_fault(0, 1, FaultPlan::always_byzantine(), 7);
        byzantine.set_replica_fault(1, 3, FaultPlan::always_byzantine(), 11);
        digest = fold_random_calls(&byzantine, seed, digest);
    }
    digest
}
