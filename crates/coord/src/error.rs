//! Error type of the coordination service.

use std::fmt;

use cloud_store::types::AccountId;

/// Errors returned by the coordination service and the lock manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// The requested entry does not exist.
    NotFound {
        /// Key that was requested.
        key: String,
    },
    /// An entry already exists where exclusive creation was requested.
    AlreadyExists {
        /// Key that already exists.
        key: String,
    },
    /// A conditional update failed because the entry's version changed.
    VersionMismatch {
        /// Key of the entry.
        key: String,
        /// Version the caller expected.
        expected: Option<u64>,
        /// Version actually found.
        actual: Option<u64>,
    },
    /// The lock is held by another session.
    LockHeld {
        /// Key of the lock entry.
        key: String,
        /// Session currently holding the lock.
        holder: String,
    },
    /// The requesting account is not allowed to perform the operation.
    AccessDenied {
        /// Key of the entry.
        key: String,
        /// Account that made the request.
        account: String,
    },
    /// Not enough replicas answered (or answers did not match) to complete
    /// the operation.
    Unavailable {
        /// Why the service is unavailable.
        reason: String,
    },
    /// The request was malformed.
    InvalidRequest {
        /// Why the request was rejected.
        reason: String,
    },
}

impl CoordError {
    /// Convenience constructor for [`CoordError::NotFound`].
    pub fn not_found(key: impl Into<String>) -> Self {
        CoordError::NotFound { key: key.into() }
    }

    /// Convenience constructor for [`CoordError::Unavailable`].
    pub fn unavailable(reason: impl Into<String>) -> Self {
        CoordError::Unavailable {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`CoordError::AccessDenied`].
    pub(crate) fn denied(key: &str, account: &AccountId) -> Self {
        CoordError::AccessDenied {
            key: key.to_string(),
            account: account.to_string(),
        }
    }

    /// Convenience constructor for [`CoordError::InvalidRequest`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        CoordError::InvalidRequest {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::NotFound { key } => write!(f, "entry not found: {key}"),
            CoordError::AlreadyExists { key } => write!(f, "entry already exists: {key}"),
            CoordError::VersionMismatch {
                key,
                expected,
                actual,
            } => write!(
                f,
                "version mismatch on {key}: expected {expected:?}, found {actual:?}"
            ),
            CoordError::LockHeld { key, holder } => {
                write!(f, "lock {key} is held by session {holder}")
            }
            CoordError::AccessDenied { key, account } => {
                write!(f, "account {account} may not access {key}")
            }
            CoordError::Unavailable { reason } => {
                write!(f, "coordination service unavailable: {reason}")
            }
            CoordError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for CoordError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            CoordError::not_found("/a").to_string(),
            "entry not found: /a"
        );
        assert!(CoordError::unavailable("no quorum")
            .to_string()
            .contains("no quorum"));
        let v = CoordError::VersionMismatch {
            key: "/f".into(),
            expected: Some(3),
            actual: Some(5),
        };
        assert!(v.to_string().contains("expected Some(3)"));
        let l = CoordError::LockHeld {
            key: "/l".into(),
            holder: "s-1".into(),
        };
        assert!(l.to_string().contains("s-1"));
    }
}
