//! Durability levels (paper Table 1).
//!
//! Data written through SCFS moves through up to four durability levels,
//! depending on which system call completed and which backend is in use:
//!
//! | Level | Location        | Latency      | Tolerates          | Call    |
//! |-------|-----------------|--------------|--------------------|---------|
//! | 0     | main memory     | microseconds | nothing            | `write` |
//! | 1     | local disk      | milliseconds | process/OS crash   | `fsync` |
//! | 2     | single cloud    | seconds      | local disk failure | `close` |
//! | 3     | cloud-of-clouds | seconds      | f cloud providers  | `close` |
//!
//! # `sync(handle)`: explicit durability promotion
//!
//! The table describes what each call guarantees *when it returns* — and in
//! the non-blocking and non-sharing modes a `close` returns at level 1, with
//! levels 2/3 reached only when the background upload's completion token
//! fires. [`crate::fs::FileSystem::sync`] is the explicit promotion call
//! that closes this gap on demand, per object:
//!
//! * a dirty (or never-uploaded) handle is chunked, spilled to the local
//!   disk (level 1) and committed to the backend synchronously, exactly like
//!   a blocking close but without releasing the handle;
//! * a clean handle with an in-flight background upload waits on *that
//!   object's* [`sim_core::background::Pending`] token — not on the global
//!   drain horizon;
//! * either way `sync` returns the level the backend provides:
//!   [`DurabilityLevel::SingleCloud`] (2) on AWS,
//!   [`DurabilityLevel::CloudOfClouds`] (3) on the cloud-of-clouds —
//!   regardless of the agent's operation mode ([`level_on_return`] with
//!   [`SysCall::Sync`]).
//!
//! A second mount of the same account reaches the same point without the
//! handle: the writer surfaces its upload token
//! (`ScfsAgent::upload_token`), and the other mount waits on it precisely
//! instead of sleeping past a drain estimate.

use crate::config::Mode;

/// The durability level reached by a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DurabilityLevel {
    /// Level 0: the data is only in the agent's main memory.
    MainMemory,
    /// Level 1: the data reached the local disk.
    LocalDisk,
    /// Level 2: the data reached a single storage cloud.
    SingleCloud,
    /// Level 3: the data reached a quorum of clouds in a cloud-of-clouds.
    CloudOfClouds,
}

impl DurabilityLevel {
    /// The numeric level used in Table 1.
    pub fn level(&self) -> u8 {
        match self {
            DurabilityLevel::MainMemory => 0,
            DurabilityLevel::LocalDisk => 1,
            DurabilityLevel::SingleCloud => 2,
            DurabilityLevel::CloudOfClouds => 3,
        }
    }

    /// The failures this level tolerates, as described in Table 1.
    pub fn tolerates(&self) -> &'static str {
        match self {
            DurabilityLevel::MainMemory => "none",
            DurabilityLevel::LocalDisk => "process/OS crash",
            DurabilityLevel::SingleCloud => "local disk failure",
            DurabilityLevel::CloudOfClouds => "f cloud provider failures",
        }
    }
}

/// The system call classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysCall {
    /// A `write` on an open file.
    Write,
    /// An `fsync` of an open file.
    Fsync,
    /// A `close` of a modified file.
    Close,
    /// A `sync` of an open file: explicit promotion to cloud durability.
    Sync,
}

/// The durability level guaranteed *when the call returns*, for a given
/// backend (`cloud_of_clouds`) and operation mode.
///
/// In blocking mode `close` waits for the cloud upload, so it returns at
/// level 2 or 3; in the non-blocking and non-sharing modes `close` returns
/// after the local-disk write (level 1) and the cloud level is only reached
/// when the background upload completes.
pub fn level_on_return(call: SysCall, mode: Mode, cloud_of_clouds: bool) -> DurabilityLevel {
    match call {
        SysCall::Write => DurabilityLevel::MainMemory,
        SysCall::Fsync => DurabilityLevel::LocalDisk,
        SysCall::Close => {
            if mode.blocking_close() {
                cloud_level(cloud_of_clouds)
            } else {
                DurabilityLevel::LocalDisk
            }
        }
        // `sync` blocks until the object's version commit (pending or
        // started by the call itself) lands in the cloud, in every mode.
        SysCall::Sync => cloud_level(cloud_of_clouds),
    }
}

/// The durability level *eventually* reached once background uploads drain.
pub fn level_eventually(call: SysCall, cloud_of_clouds: bool) -> DurabilityLevel {
    match call {
        SysCall::Write => DurabilityLevel::MainMemory,
        SysCall::Fsync => DurabilityLevel::LocalDisk,
        SysCall::Close | SysCall::Sync => cloud_level(cloud_of_clouds),
    }
}

/// Level 2 or 3, depending on the backend (Table 1's two cloud rows).
pub fn cloud_level(cloud_of_clouds: bool) -> DurabilityLevel {
    if cloud_of_clouds {
        DurabilityLevel::CloudOfClouds
    } else {
        DurabilityLevel::SingleCloud
    }
}

/// One row of Table 1, for the `reproduce` binary.
pub fn table1_rows() -> Vec<(u8, &'static str, &'static str, &'static str, &'static str)> {
    vec![
        (0, "main memory", "microseconds", "none", "write"),
        (1, "local disk", "milliseconds", "process/OS crash", "fsync"),
        (2, "cloud", "seconds", "local disk failure", "close"),
        (
            3,
            "cloud-of-clouds",
            "seconds",
            "f cloud provider failures",
            "close",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(DurabilityLevel::MainMemory < DurabilityLevel::LocalDisk);
        assert!(DurabilityLevel::LocalDisk < DurabilityLevel::SingleCloud);
        assert!(DurabilityLevel::SingleCloud < DurabilityLevel::CloudOfClouds);
        assert_eq!(DurabilityLevel::CloudOfClouds.level(), 3);
    }

    #[test]
    fn table1_mapping_for_blocking_mode() {
        assert_eq!(
            level_on_return(SysCall::Write, Mode::Blocking, true),
            DurabilityLevel::MainMemory
        );
        assert_eq!(
            level_on_return(SysCall::Fsync, Mode::Blocking, false),
            DurabilityLevel::LocalDisk
        );
        assert_eq!(
            level_on_return(SysCall::Close, Mode::Blocking, false),
            DurabilityLevel::SingleCloud
        );
        assert_eq!(
            level_on_return(SysCall::Close, Mode::Blocking, true),
            DurabilityLevel::CloudOfClouds
        );
    }

    #[test]
    fn sync_promotes_to_cloud_level_in_every_mode() {
        for mode in [Mode::Blocking, Mode::NonBlocking, Mode::NonSharing] {
            assert_eq!(
                level_on_return(SysCall::Sync, mode, false),
                DurabilityLevel::SingleCloud
            );
            assert_eq!(
                level_on_return(SysCall::Sync, mode, true),
                DurabilityLevel::CloudOfClouds
            );
        }
        assert_eq!(
            level_eventually(SysCall::Sync, true),
            DurabilityLevel::CloudOfClouds
        );
        assert_eq!(cloud_level(false), DurabilityLevel::SingleCloud);
    }

    #[test]
    fn non_blocking_close_returns_at_disk_level_but_eventually_reaches_cloud() {
        assert_eq!(
            level_on_return(SysCall::Close, Mode::NonBlocking, true),
            DurabilityLevel::LocalDisk
        );
        assert_eq!(
            level_eventually(SysCall::Close, true),
            DurabilityLevel::CloudOfClouds
        );
        assert_eq!(
            level_eventually(SysCall::Close, false),
            DurabilityLevel::SingleCloud
        );
    }

    #[test]
    fn table1_has_four_rows_with_expected_calls() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].4, "write");
        assert_eq!(rows[1].4, "fsync");
        assert_eq!(rows[3].1, "cloud-of-clouds");
    }

    #[test]
    fn descriptions_are_nonempty() {
        for level in [
            DurabilityLevel::MainMemory,
            DurabilityLevel::LocalDisk,
            DurabilityLevel::SingleCloud,
            DurabilityLevel::CloudOfClouds,
        ] {
            assert!(!level.tolerates().is_empty());
        }
    }
}
