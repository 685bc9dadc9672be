//! The client-facing coordination-service interface.
//!
//! SCFS's metadata service, lock service and private-name-space machinery
//! are all written against [`CoordinationService`]. The paper's prototype
//! supports two implementations (ZooKeeper and DepSpace); in the
//! reproduction both are modelled by [`crate::ReplicatedCoordinator`]
//! configured with the appropriate replication mode, and a zero-latency
//! in-process implementation is available for unit tests.

use cloud_store::store::OpCtx;
use cloud_store::types::{AccountId, Acl};
use sim_core::time::{SimDuration, SimInstant};

use crate::error::CoordError;

/// Identifier of a client session, used for ephemeral entries (locks).
///
/// In ZooKeeper this is the session id behind an ephemeral znode; in
/// DepSpace it is the identity attached to a timed tuple. If the session's
/// lease expires (the client crashed), all its ephemeral entries vanish.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub String);

impl SessionId {
    /// Creates a session id.
    pub fn new(id: impl Into<String>) -> Self {
        SessionId(id.into())
    }

    /// The raw identifier.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One entry read from the coordination service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Entry key (a path-like string).
    pub key: String,
    /// Opaque value (SCFS stores serialized metadata tuples, at most ~1 KB).
    pub value: Vec<u8>,
    /// Version number, incremented on every update.
    pub version: u64,
    /// Account that created the entry.
    pub owner: AccountId,
    /// Access control list protecting the entry.
    pub acl: Acl,
    /// Present if the entry is ephemeral: the owning session and its expiry.
    pub ephemeral: Option<(SessionId, SimInstant)>,
    /// Instant at which this version was committed.
    pub updated_at: SimInstant,
}

impl Entry {
    /// Whether the entry is ephemeral and still alive at `now`.
    pub fn is_live_ephemeral(&self, now: SimInstant) -> bool {
        match &self.ephemeral {
            Some((_, expires)) => *expires > now,
            None => false,
        }
    }
}

/// The coordination service used by SCFS for metadata storage and locking.
///
/// All operations are linearizable: the service is the *consistency anchor*
/// of the file system (paper §2.4). Every call charges the caller's virtual
/// clock with the latency of a replicated WAN round trip.
pub trait CoordinationService: Send + Sync {
    /// Creates or unconditionally updates an entry, returning its new version.
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, value: Vec<u8>) -> Result<u64, CoordError>;

    /// Conditionally updates an entry.
    ///
    /// * `expected == None` — the entry must not exist (exclusive create).
    /// * `expected == Some(v)` — the entry's current version must be `v`.
    fn cas(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        expected: Option<u64>,
        value: Vec<u8>,
    ) -> Result<u64, CoordError>;

    /// Creates an ephemeral entry bound to `session` with the given lease.
    /// Fails with [`CoordError::AlreadyExists`] if a live entry already holds
    /// the key (this is the primitive behind file locks).
    fn create_ephemeral(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Vec<u8>,
        session: &SessionId,
        lease: SimDuration,
    ) -> Result<(), CoordError>;

    /// Reads an entry.
    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError>;

    /// Deletes an entry.
    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), CoordError>;

    /// Lists the keys with the given prefix that the caller may read, in key
    /// order and each once.
    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError>;

    /// Replaces the ACL of an entry (owner only).
    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), CoordError>;

    /// Renames every entry under the path `old_prefix` — the key is the
    /// prefix, the prefix ends in `/`, or the key continues at a `/`, so
    /// `/d` moves `/d` and `/d/x` but never the sibling `/dx` — replacing
    /// that prefix with `new_prefix`. This is the trigger extension the
    /// authors added to DepSpace to implement `rename` efficiently (paper
    /// §3.2). Returns the number of renamed entries.
    fn rename_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        old_prefix: &str,
        new_prefix: &str,
    ) -> Result<usize, CoordError>;

    /// Total number of client accesses served so far (used by the experiment
    /// harnesses to report coordination-service load, cf. §2.7 and §4.4).
    fn access_count(&self) -> u64;

    /// Number of entries currently stored (capacity analyses, Figure 11(a)).
    fn entry_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_id_display() {
        let s = SessionId::new("agent-1");
        assert_eq!(s.to_string(), "agent-1");
        assert_eq!(s.as_str(), "agent-1");
    }

    #[test]
    fn entry_ephemeral_liveness() {
        let mut e = Entry {
            key: "/lock".into(),
            value: vec![],
            version: 1,
            owner: "alice".into(),
            acl: Acl::private(),
            ephemeral: Some((SessionId::new("s"), SimInstant::from_secs(10))),
            updated_at: SimInstant::EPOCH,
        };
        assert!(e.is_live_ephemeral(SimInstant::from_secs(5)));
        assert!(!e.is_live_ephemeral(SimInstant::from_secs(10)));
        e.ephemeral = None;
        assert!(!e.is_live_ephemeral(SimInstant::EPOCH));
    }
}
