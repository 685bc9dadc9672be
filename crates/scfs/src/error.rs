//! The SCFS error type.

use std::fmt;

use cloud_store::error::StorageError;
use coord::error::CoordError;

/// Errors returned by the SCFS agent and its services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScfsError {
    /// The path does not exist.
    NotFound {
        /// Offending path.
        path: String,
    },
    /// The path already exists where exclusive creation was requested.
    AlreadyExists {
        /// Offending path.
        path: String,
    },
    /// The operation expected a file but found a directory (or vice versa).
    WrongType {
        /// Offending path.
        path: String,
        /// What was expected ("file" or "directory").
        expected: &'static str,
    },
    /// The caller lacks the required permission.
    PermissionDenied {
        /// Offending path.
        path: String,
    },
    /// Another client holds the write lock on the file.
    Locked {
        /// Offending path.
        path: String,
        /// Session holding the lock.
        holder: String,
    },
    /// The file handle is unknown or already closed.
    BadHandle {
        /// The offending handle value.
        handle: u64,
    },
    /// The storage backend failed.
    Storage(StorageError),
    /// The coordination service failed.
    Coordination(CoordError),
    /// The request was malformed (bad path, bad flags, ...).
    Invalid {
        /// Why the request was rejected.
        reason: String,
    },
}

impl ScfsError {
    /// Convenience constructor for [`ScfsError::NotFound`].
    pub fn not_found(path: impl Into<String>) -> Self {
        ScfsError::NotFound { path: path.into() }
    }

    /// Convenience constructor for [`ScfsError::Invalid`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        ScfsError::Invalid {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ScfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScfsError::NotFound { path } => write!(f, "no such file or directory: {path}"),
            ScfsError::AlreadyExists { path } => write!(f, "file exists: {path}"),
            ScfsError::WrongType { path, expected } => {
                write!(f, "{path} is not a {expected}")
            }
            ScfsError::PermissionDenied { path } => write!(f, "permission denied: {path}"),
            ScfsError::Locked { path, holder } => {
                write!(f, "{path} is locked by {holder}")
            }
            ScfsError::BadHandle { handle } => write!(f, "bad file handle: {handle}"),
            ScfsError::Storage(e) => write!(f, "storage error: {e}"),
            ScfsError::Coordination(e) => write!(f, "coordination error: {e}"),
            ScfsError::Invalid { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ScfsError {}

impl From<StorageError> for ScfsError {
    fn from(e: StorageError) -> Self {
        ScfsError::Storage(e)
    }
}

impl From<CoordError> for ScfsError {
    fn from(e: CoordError) -> Self {
        match e {
            CoordError::LockHeld { key, holder } => ScfsError::Locked { path: key, holder },
            CoordError::AccessDenied { key, .. } => ScfsError::PermissionDenied { path: key },
            other => ScfsError::Coordination(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ScfsError::not_found("/a/b").to_string(),
            "no such file or directory: /a/b"
        );
        assert!(ScfsError::invalid("oops").to_string().contains("oops"));
        assert!(ScfsError::BadHandle { handle: 7 }.to_string().contains('7'));
    }

    #[test]
    fn coordination_lock_errors_map_to_locked() {
        let e: ScfsError = CoordError::LockHeld {
            key: "/f".into(),
            holder: "s-1".into(),
        }
        .into();
        assert!(matches!(e, ScfsError::Locked { .. }));
        let e: ScfsError = CoordError::not_found("/x").into();
        assert!(matches!(e, ScfsError::Coordination(_)));
    }

    #[test]
    fn storage_errors_wrap() {
        let e: ScfsError = StorageError::not_found("k").into();
        assert!(matches!(e, ScfsError::Storage(_)));
    }
}
