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
//! # What each call waits for
//!
//! The agent's local disk is its cache's disk tier, and every write to it
//! lands behind the caller ([`crate::cache`]): a call waits for the disk
//! only where this table promises level 1, and for the cloud only where it
//! promises level 2/3.
//!
//! * `write` waits for nothing but memory (level 0).
//! * `fsync` spills the chunks the handle holds to the local disk and
//!   returns once the spill has landed (level 1). A chunk the handle never
//!   read is a hole in its buffer: unchanged since the version the handle
//!   opened, so already at level 2/3, and neither spilled nor uploaded.
//! * A non-blocking or non-sharing `close` does the same — only the chunks
//!   the disk does not already hold are written — and then starts the
//!   upload in the background: it returns at level 1, and the object's
//!   completion token fires at level 2/3.
//! * A blocking `close` and `sync` start the upload at the same instant as
//!   the spill, so the two overlap. They return at the later of the anchor
//!   update (level 2/3) and the spill landing; on a WAN the anchor is
//!   always later.
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
//!   disk (level 1) and committed to the backend synchronously, the spill
//!   and the upload overlapping, exactly like a blocking close but without
//!   releasing the handle;
//! * a clean handle with an in-flight background upload waits on *that
//!   object's* [`sim_core::background::Pending`] token — not on the global
//!   drain horizon;
//! * either way `sync` returns the level the backend provides:
//!   [`DurabilityLevel::SingleCloud`] (2) on AWS,
//!   [`DurabilityLevel::CloudOfClouds`] (3) on the cloud-of-clouds —
//!   regardless of the agent's operation mode.
//!
//! A second mount of the same account reaches the same point without the
//! handle: the writer surfaces its upload token
//! (`ScfsAgent::upload_token`), and the other mount waits on it precisely
//! instead of sleeping past a drain estimate.

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
