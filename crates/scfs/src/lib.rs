//! SCFS: a Shared Cloud-backed File System.
//!
//! This crate is the core contribution of the reproduction: a library-level
//! implementation of the SCFS design (Bessani et al., USENIX ATC 2014). It
//! provides strongly consistent, POSIX-like file sharing on top of
//! eventually-consistent cloud object stores, following the paper's four
//! design ideas:
//!
//! * **Always write / avoid reading** — every close pushes the file to the
//!   cloud(s); reads are served from the local memory/disk caches validated
//!   against the metadata service ([`cache`], [`agent`]).
//! * **Modular coordination** — metadata and locks live in a fault-tolerant
//!   coordination service ([`metadata_service`], the `coord` crate).
//! * **Consistency anchors** — the strongly consistent coordination service
//!   anchors the consistency of the eventually-consistent clouds
//!   ([`anchor`]).
//! * **Private name spaces** — metadata of non-shared files is aggregated
//!   into one cloud object instead of one coordination tuple per file
//!   ([`pns`]).
//!
//! The file data itself goes either to a single cloud or to a DepSky
//! cloud-of-clouds ([`backend`]), moving through the parallel chunk
//! [`transfer`] engine (plan → bounded-parallel execution on forked virtual
//! clocks), and the agent supports the paper's three modes of operation
//! (blocking, non-blocking, non-sharing; [`config`]). Chunks live in a
//! global, refcounted, content-addressed namespace ([`chunkstore`]):
//! identical content moves once across versions, files and users, and the
//! garbage collector reclaims through a two-phase release journal that
//! retries failed deletes instead of leaking orphans.
//!
//! Chunk boundaries are either fixed-size strides or **content-defined**
//! (Gear/FastCDC rolling hash; [`config::ChunkingMode`],
//! [`types::CdcParams`]): under CDC, an insert in the middle of a file
//! re-cuts only the chunks around the edit and the shifted tail re-aligns
//! to identical hashes, so the dedup survives byte shifts that would force
//! fixed-size chunking to re-upload the whole tail. Both layouts sit
//! behind the same [`types::ChunkMap`] extent API, serialized as v1
//! (fixed, backward-compatible) or v2 (extent-table) manifests.
//!
//! Background work — non-blocking uploads, prefetch, garbage collection — is
//! modelled as first-class completion tokens
//! ([`sim_core::background::Pending`]) scheduled on per-object lanes of a
//! [`sim_core::background::BackgroundScheduler`]: uploads of different files
//! overlap in virtual time, commits of the same object serialize, and every
//! caller — `setfacl`, reopens, [`fs::FileSystem::sync`], even a second
//! mount of the same account ([`agent::ScfsAgent::upload_token`]) — waits
//! precisely on *one object's* token instead of a global drain horizon.
//! [`fs::FileSystem::sync`] surfaces the durability promotion of Table 1
//! ([`durability`]): it returns only when the object's data has reached the
//! backend's cloud level.
//!
//! # Quick start
//!
//! The async session API, end to end: a non-blocking close returns at local
//! durability (level 1), the surfaced token tells everyone exactly when the
//! cloud commit lands, and `sync` promotes on demand (level 2/3).
//!
//! ```
//! use std::sync::Arc;
//! use cloud_store::providers::ProviderProfile;
//! use cloud_store::sim_cloud::SimulatedCloud;
//! use coord::replication::ReplicatedCoordinator;
//! use coord::service::CoordinationService;
//! use scfs::agent::ScfsAgent;
//! use scfs::backend::SingleCloudStorage;
//! use scfs::config::{Mode, ScfsConfig};
//! use scfs::durability::DurabilityLevel;
//! use scfs::fs::FileSystem;
//! use scfs::types::OpenFlags;
//!
//! // A WAN-latency simulated cloud: uploads take real virtual time.
//! let cloud = Arc::new(SimulatedCloud::new(ProviderProfile::amazon_s3(), 42));
//! let storage = Arc::new(SingleCloudStorage::new(cloud));
//! let coordinator: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
//! let mut fs = ScfsAgent::mount(
//!     "alice".into(),
//!     ScfsConfig::test(Mode::NonBlocking),
//!     storage,
//!     Some(coordinator),
//!     42,
//! ).unwrap();
//!
//! // The close returns after local persistence; the upload is a background
//! // job on the file's lane, surfaced as a completion token.
//! fs.write_file("/docs/hello.txt", b"hello cloud-of-clouds").unwrap();
//! let token = fs.upload_token("/docs/hello.txt").expect("upload in flight");
//!
//! // This client reads its own writes immediately...
//! assert_eq!(fs.read_file("/docs/hello.txt").unwrap(), b"hello cloud-of-clouds");
//!
//! // ...and `sync` waits on exactly this object's token, promoting the
//! // data to cloud durability (Table 1, level 2 on a single cloud).
//! let h = fs.open("/docs/hello.txt", OpenFlags::read_only()).unwrap();
//! assert_eq!(fs.sync(h).unwrap(), DurabilityLevel::SingleCloud);
//! assert!(fs.now() >= token.ready_at());
//! fs.close(h).unwrap();
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "a unit test is a clock root over simulated clouds"
    )
)]

pub mod agent;
pub mod anchor;
pub mod backend;
pub mod cache;
pub mod chunkstore;
pub mod config;
pub mod cost;
pub mod durability;
pub mod error;
pub mod fs;
pub mod invariant;
pub mod metadata_service;
pub mod pns;
pub mod transfer;
pub mod types;

pub use agent::{AgentStats, ScfsAgent};
pub use backend::{CloudOfCloudsStorage, FileStorage, SingleCloudStorage, WriteOutcome};
pub use chunkstore::{BlobAudit, BlobName, ChunkStore, JournalOpts, KeyStyle, ReplayReport};
pub use config::{ChunkingMode, GcConfig, Mode, ScfsConfig};
pub use cost::{CostBackend, CostModel};
pub use durability::{DurabilityLevel, SysCall};
pub use error::ScfsError;
pub use fs::FileSystem;
pub use invariant::InvariantViolation;
pub use sim_core::background::{BackgroundScheduler, Pending};
pub use transfer::{TransferOptions, TransferPlan};
pub use types::{CdcParams, ChunkMap, CutRule, FileHandle, FileMetadata, FileType, OpenFlags};
