//! DepSky: dependable and secure storage on a cloud-of-clouds.
//!
//! The SCFS cloud-of-clouds backend stores every blob through an extended
//! version of DepSky (paper §3.2, Figures 5 and 6). A *data unit* is
//! replicated over `n = 3f + 1` clouds and tolerates `f` arbitrarily faulty
//! providers (unavailable, erasing, corrupting or fabricating data). The
//! DepSky-CA protocol implemented here combines:
//!
//! 1. a fresh random key per write and symmetric encryption of the data;
//! 2. a systematic Reed–Solomon erasure code producing one block per cloud,
//!    so that any `f + 1` clouds can rebuild the ciphertext at roughly half
//!    the storage cost of full replication;
//! 3. Shamir secret sharing of the key, one share per cloud, so no single
//!    provider can decrypt the data;
//! 4. Byzantine quorum protocols: writes wait for `n − f` acknowledgements,
//!    reads gather enough verifiable blocks to reconstruct.
//!
//! The paper keeps whole files as versioned, mutable units and adds one
//! operation — *read the version with a given hash* — for its consistency
//! anchor. Everything this repository stores is instead a write-once blob
//! named by its content hash (an SCFS chunk or chunk-map manifest), so the
//! client's whole surface is four calls on a blob `(base, hash)`:
//! [`DepSkyClient::write_blob`], [`DepSkyClient::read_blob`] (the paper's
//! read-by-hash: the hash is in the unit's name), [`DepSkyClient::delete_blob`]
//! and [`DepSkyClient::set_blob_acl`] — plus the bare twins of the first
//! three for a blob whose hash the caller keeps where readers find it (an
//! SCFS chunk, named by its anchored manifest): such a blob is its blocks
//! alone, with no metadata record. The mutable-unit register, DepSky-A
//! (plain replication) and writes to all `n` clouds are not implemented.
//!
//! Modules:
//!
//! * [`wire`] — a tiny length-prefixed binary codec for metadata objects.
//! * [`metadata`] — the per-data-unit metadata object stored in every cloud
//!   (for a unit with a record).
//! * [`config`] — the number of tolerated faulty clouds and the quorum
//!   sizes that follow from it.
//! * [`register`] — the [`DepSkyClient`] blob store, and how a blob's unit
//!   and cloud keys are spelled and parsed back. Parallel cloud access and
//!   quorum waits are [`sim_core::parallel`]'s fork/join, called directly.

#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "a unit test is a clock root")
)]

pub mod config;
pub mod metadata;
pub mod register;
pub mod wire;

pub use config::DepSkyConfig;
pub use metadata::{DataUnitMetadata, VersionInfo};
pub use register::DepSkyClient;
