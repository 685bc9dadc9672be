//! The object-store interface shared by all simulated providers.
//!
//! SCFS's service-agnosticism principle (paper §2.1) means the file system
//! only relies on what every commercial storage cloud offers: on-demand
//! PUT/GET/DELETE/LIST of variable-sized objects plus basic access control
//! lists. [`ObjectStore`] captures exactly that surface; DepSky and the SCFS
//! storage service are written against this trait so that single-cloud and
//! cloud-of-clouds backends are interchangeable.

use sim_core::time::Clock;

use crate::error::StorageError;
use crate::providers::ProviderProfile;
use crate::types::{AccountId, Acl, ObjectMeta};

/// Per-operation context: the caller's virtual clock and cloud account.
///
/// The clock is advanced by the latency of each operation; the account is
/// used for access control and billing.
#[derive(Debug)]
pub struct OpCtx<'a> {
    /// The caller's virtual clock, advanced by each operation's latency.
    pub clock: &'a mut Clock,
    /// The cloud account issuing the operation.
    pub account: AccountId,
}

impl<'a> OpCtx<'a> {
    /// Creates an operation context.
    pub fn new(clock: &'a mut Clock, account: AccountId) -> Self {
        OpCtx { clock, account }
    }
}

/// A cloud object store: the lowest-level storage abstraction in the system.
///
/// All operations are synchronous in *virtual* time: they advance the
/// caller's clock by the sampled latency and then return the result the
/// service would have produced at that instant.
pub trait ObjectStore: Send + Sync {
    /// Stable identifier of the provider (e.g. `"s3"`).
    fn id(&self) -> &str;

    /// Static profile (latency, pricing, consistency) of the provider.
    fn profile(&self) -> &ProviderProfile;

    /// Stores `data` under `key`, creating a new version. The object becomes
    /// the property of `ctx.account` if it did not exist.
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Retrieves the latest *visible* version of `key`.
    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError>;

    /// Retrieves the metadata of `key` without downloading its data.
    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError>;

    /// Deletes `key` (all versions).
    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError>;

    /// Lists the keys visible to `ctx.account` that start with `prefix`.
    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, StorageError>;

    /// Replaces the ACL of `key`; only the owner may do this.
    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), StorageError>;

    /// Reads the ACL of `key`.
    fn get_acl(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Acl, StorageError>;
}
