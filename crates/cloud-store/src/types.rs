//! Accounts, ACLs and object metadata for the simulated clouds.
//!
//! SCFS's security model (paper §2.6) relies on the access-control
//! capabilities of the backend clouds: every user has its own account with
//! each provider, objects are owned by the account that created them
//! (pay-per-ownership) and the owner can grant read/write permissions to the
//! *cloud canonical identifiers* of other users via `setfacl`.

use std::collections::BTreeMap;
use std::fmt;

use sim_core::time::SimInstant;
use sim_core::units::Bytes;

/// Identifier of a cloud account (one per user per provider).
///
/// In the paper each user has separate accounts in the various providers,
/// each with its own canonical identifier; SCFS keeps the association in the
/// coordination service. In the reproduction we use one logical account id
/// per user and let each simulated provider treat it as its canonical id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(pub String);

impl AccountId {
    /// Creates an account id.
    pub fn new(name: impl Into<String>) -> Self {
        AccountId(name.into())
    }

    /// The account name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AccountId {
    fn from(s: &str) -> Self {
        AccountId::new(s)
    }
}

/// Permission granted on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Permission {
    /// Permission to read the object.
    Read,
    /// Permission to overwrite or delete the object (implies read).
    Write,
}

/// Access control list of an object: the owner plus explicit grants.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Acl {
    grants: BTreeMap<AccountId, Permission>,
}

impl Acl {
    /// An ACL with no grants (only the owner can access the object).
    pub fn private() -> Self {
        Acl::default()
    }

    /// Grants `permission` to `account`, replacing any previous grant.
    pub fn grant(&mut self, account: AccountId, permission: Permission) {
        self.grants.insert(account, permission);
    }

    /// Whether `account` holds at least `permission` through an explicit grant.
    pub fn allows(&self, account: &AccountId, permission: Permission) -> bool {
        match self.grants.get(account) {
            Some(Permission::Write) => true,
            Some(Permission::Read) => permission == Permission::Read,
            None => false,
        }
    }

    /// Iterates over the grants.
    pub fn grants(&self) -> impl Iterator<Item = (&AccountId, &Permission)> {
        self.grants.iter()
    }

    /// Number of explicit grants.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Whether the ACL has no explicit grants.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }
}

/// Metadata describing one stored object (returned by `head`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object key.
    pub key: String,
    /// Size of the currently visible version.
    pub size: Bytes,
    /// Account that created (and pays for) the object.
    pub owner: AccountId,
    /// Instant at which the visible version was written.
    pub written_at: SimInstant,
    /// Number of stored versions (the simulated clouds keep every PUT so the
    /// SCFS garbage collector has something to reclaim).
    pub version_count: usize,
    /// Access control list.
    pub acl: Acl,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_display_and_from() {
        let a: AccountId = "alice".into();
        assert_eq!(a.to_string(), "alice");
        assert_eq!(a.as_str(), "alice");
    }

    #[test]
    fn private_acl_denies_everyone() {
        let acl = Acl::private();
        assert!(acl.is_empty());
        assert!(!acl.allows(&"bob".into(), Permission::Read));
    }

    #[test]
    fn write_grant_implies_read() {
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Write);
        assert!(acl.allows(&"bob".into(), Permission::Read));
        assert!(acl.allows(&"bob".into(), Permission::Write));
    }

    #[test]
    fn read_grant_does_not_imply_write() {
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        assert!(acl.allows(&"bob".into(), Permission::Read));
        assert!(!acl.allows(&"bob".into(), Permission::Write));
    }

    #[test]
    fn regrant_replaces_previous_permission() {
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Write);
        acl.grant("bob".into(), Permission::Read);
        assert!(!acl.allows(&"bob".into(), Permission::Write));
        assert_eq!(acl.grants().count(), 1);
    }
}
