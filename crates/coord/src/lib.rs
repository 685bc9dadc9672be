//! The coordination service SCFS runs over — now a sharded metadata plane.
//!
//! One of the paper's four novel techniques is *modular coordination*
//! (paper §1, §2.3): instead of embedding a lock and metadata manager in the
//! file system, SCFS keeps its metadata and locks in an off-the-shelf
//! fault-tolerant coordination service — ZooKeeper or DepSpace replicated
//! with BFT-SMaRt. The coordination service plays the role of the
//! *consistency anchor* (paper §2.4): it is small, strongly consistent, and
//! supports operations with synchronization power (compare-and-swap,
//! ephemeral entries). Like the paper's, it knows nothing of the file system:
//! the recipes built on it — metadata tuples and write locks — are the
//! client's (`scfs::metadata_service`), and its keys are opaque strings.
//!
//! The paper deploys that anchor as **one** replicated instance, which is the
//! scalability bottleneck it names in §5. This crate therefore provides two
//! coordination planes behind one trait:
//!
//! * [`replication::ReplicatedCoordinator`] — the paper-faithful single
//!   anchor (one SMR group, latency-modeled), used to reproduce the paper's
//!   figures.
//! * [`sharded::ShardedCoordinator`] — a CFS-style sharded plane: the
//!   namespace is partitioned over **M register groups**
//!   ([`router::NamespaceRouter`], hash of the key's directory), each group
//!   an ABD-style quorum-replicated register set over N full
//!   [`store::TupleStore`] replicas ([`abd::RegisterGroup`]).
//!
//! # Which operations take which lane
//!
//! | operation | lane | why |
//! |---|---|---|
//! | `get`, `put` | **ABD** (broadcast + quorum + write-back) | plain register read/write needs no consensus |
//! | `cas`, `create_ephemeral`, `delete`, `set_acl` | **SMR** (ordered commit on all live replicas of the owning group) | conditional ops need an agreed order |
//! | `list`, `rename_prefix` | **scatter-gather** over all groups | prefix ops span shards; rename runs collect → check → apply |
//!
//! # Quorum rules
//!
//! Each group runs in a [`replication::ReplicationMode`]: crash-tolerant
//! groups have `2f + 1` replicas, write quorum `f + 1`, and trust any single
//! reply (at `f = 0`, the paper's single AWS instance and the private name
//! space's node of one); Byzantine groups have `3f + 1` replicas, write
//! quorum `2f + 1`, and require `f + 1` *matching* replies before trusting a
//! value. ABD timestamps are packed into the entry version (`(seqno << 20) |
//! writer`), so the ABD and SMR lanes share one monotone version space per
//! key.
//! Byzantine replicas can garble the values they return but not forge
//! timestamps (commands are signed and metadata self-verifying, as in
//! DepSky); reads vote replies and write back the winner on disagreement.
//!
//! # Topology knobs
//!
//! The plane's shape is `shards × replicas`, configured by
//! [`sharded::ShardTopology`] (shard count + per-group
//! [`replication::ReplicationConfig`]) — the harness that builds the
//! coordination service picks it. Each replica is a single server with a
//! reservation calendar, so one group saturates at roughly `1 / processing_time`
//! regardless of replica count — throughput scales with *shards*, fault
//! tolerance with *replicas per shard*.
//!
//! Module map:
//!
//! * [`store`] — the single-replica state machine: a versioned, ACL-protected
//!   tuple store with ephemeral entries (DepSpace tuples / ZooKeeper znodes).
//! * [`commands`] — the deterministic command/reply language applied by the
//!   state machine.
//! * [`replication`] — the single-anchor replicated deployment (latency
//!   model, fault injection, reply voting) and the shared
//!   [`replication::ReplicationConfig`] deployment profiles.
//! * [`abd`] — one quorum-replicated register group: ABD reads/writes with
//!   write-back, an SMR lane for conditional ops, per-replica calendars.
//! * [`router`] — the FNV-1a directory-hash namespace router (process-stable
//!   by construction).
//! * [`sharded`] — the sharded plane gluing router and groups together
//!   behind [`service::CoordinationService`].
//! * [`service`] — the [`service::CoordinationService`] trait used by the
//!   SCFS agent.
//! * [`deployment`] — deployment descriptions (which clouds host replicas,
//!   which VM sizes, how many shards) and their fixed cost / capacity,
//!   reproducing Figure 11(a).

#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "a unit test is a clock root")
)]

pub mod abd;
pub mod commands;
pub mod deployment;
pub mod error;
pub mod replication;
pub mod router;
pub mod service;
pub mod sharded;
pub mod store;

pub use abd::RegisterGroup;
pub use commands::{Command, Reply};
pub use deployment::CoordDeployment;
pub use error::CoordError;
pub use replication::{ReplicatedCoordinator, ReplicationConfig, ReplicationMode};
pub use router::NamespaceRouter;
pub use service::{CoordinationService, Entry, SessionId};
pub use sharded::{ShardTopology, ShardedCoordinator};
pub use store::TupleStore;
