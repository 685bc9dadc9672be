//! File-lock recipes built on ephemeral coordination-service entries.
//!
//! SCFS avoids write–write conflicts by locking a file when it is opened for
//! writing and unlocking it at close (paper §2.5.1 "Locking service" and
//! §2.5.2). The lock service is "basically a wrapper for implementing
//! coordination recipes for locking using the coordination service of
//! choice": the lock is an ephemeral entry (a ZooKeeper ephemeral znode or a
//! DepSpace timed tuple), so if the client crashes before uploading its
//! update and releasing the lock, the entry — and hence the lock — expires on
//! its own.

use std::sync::Arc;

use cloud_store::store::OpCtx;
use sim_core::time::SimDuration;

use crate::error::CoordError;
use crate::service::{CoordinationService, SessionId};

/// Lock manager bound to one client session.
#[derive(Clone)]
pub struct LockManager {
    coord: Arc<dyn CoordinationService>,
    session: SessionId,
    lease: SimDuration,
    prefix: String,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("session", &self.session)
            .field("lease", &self.lease)
            .field("prefix", &self.prefix)
            .finish()
    }
}

impl LockManager {
    /// Default lease duration: long enough for a whole-file upload to any of
    /// the clouds, short enough that a crashed client does not block writers
    /// for long.
    pub const DEFAULT_LEASE: SimDuration = SimDuration::from_secs(120);

    /// Creates a lock manager for `session` using the given service.
    pub fn new(
        coord: Arc<dyn CoordinationService>,
        session: SessionId,
        lease: SimDuration,
    ) -> Self {
        LockManager {
            coord,
            session,
            lease,
            prefix: "/scfs/locks/".to_string(),
        }
    }

    /// The session this manager locks on behalf of.
    pub fn session(&self) -> &SessionId {
        &self.session
    }

    /// The coordination-service key used for a file's lock entry.
    pub fn lock_key(&self, file_id: &str) -> String {
        format!("{}{}", self.prefix, file_id)
    }

    /// Tries to acquire the write lock for `file_id`.
    ///
    /// Returns `Ok(())` on success and [`CoordError::LockHeld`] if another
    /// live session holds it. The lock is re-entrant with respect to this
    /// session: re-acquiring a lock we already hold succeeds and creates no
    /// entry. A release of ours already in flight therefore still deletes
    /// the one entry there is — re-opening a file whose previous
    /// non-blocking close has not released it yet yields a handle that holds
    /// no lock once that release lands.
    pub fn try_lock(&self, ctx: &mut OpCtx<'_>, file_id: &str) -> Result<(), CoordError> {
        match self.coord.create_ephemeral(
            ctx,
            &self.lock_key(file_id),
            self.session.as_str().as_bytes().to_vec(),
            &self.session,
            self.lease,
        ) {
            Ok(()) => Ok(()),
            Err(CoordError::LockHeld { holder, .. }) if holder == self.session.as_str() => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Releases the write lock for `file_id`. Releasing a lock that is not
    /// held (e.g. it already expired) is not an error.
    pub fn unlock(&self, ctx: &mut OpCtx<'_>, file_id: &str) -> Result<(), CoordError> {
        match self.coord.delete(ctx, &self.lock_key(file_id)) {
            Ok(()) => Ok(()),
            Err(CoordError::NotFound { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Whether `file_id` is currently locked (by any session).
    pub fn is_locked(&self, ctx: &mut OpCtx<'_>, file_id: &str) -> Result<bool, CoordError> {
        match self.coord.get(ctx, &self.lock_key(file_id)) {
            Ok(entry) => Ok(entry.is_live_ephemeral(ctx.clock.now())),
            Err(CoordError::NotFound { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicatedCoordinator;
    use sim_core::time::Clock;

    fn setup() -> Arc<dyn CoordinationService> {
        Arc::new(ReplicatedCoordinator::test())
    }

    #[test]
    fn lock_unlock_cycle() {
        let coord = setup();
        let mgr = LockManager::new(coord, SessionId::new("alice-1"), SimDuration::from_secs(60));
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        assert!(!mgr.is_locked(&mut ctx, "file-1").unwrap());
        mgr.try_lock(&mut ctx, "file-1").unwrap();
        assert!(mgr.is_locked(&mut ctx, "file-1").unwrap());
        mgr.unlock(&mut ctx, "file-1").unwrap();
        assert!(!mgr.is_locked(&mut ctx, "file-1").unwrap());
    }

    #[test]
    fn second_session_cannot_lock_a_held_file() {
        let coord = setup();
        let alice = LockManager::new(
            coord.clone(),
            SessionId::new("alice-1"),
            SimDuration::from_secs(60),
        );
        let bob = LockManager::new(coord, SessionId::new("bob-1"), SimDuration::from_secs(60));

        let mut clock_a = Clock::new();
        let mut ctx_a = OpCtx::new(&mut clock_a, "alice".into());
        alice.try_lock(&mut ctx_a, "shared").unwrap();

        let mut clock_b = Clock::new();
        let mut ctx_b = OpCtx::new(&mut clock_b, "bob".into());
        assert!(matches!(
            bob.try_lock(&mut ctx_b, "shared"),
            Err(CoordError::LockHeld { .. })
        ));

        // After alice unlocks, bob succeeds.
        alice.unlock(&mut ctx_a, "shared").unwrap();
        clock_b.advance(SimDuration::from_secs(1));
        let mut ctx_b = OpCtx::new(&mut clock_b, "bob".into());
        bob.try_lock(&mut ctx_b, "shared").unwrap();
    }

    #[test]
    fn crashed_clients_lock_expires() {
        let coord = setup();
        let alice = LockManager::new(
            coord.clone(),
            SessionId::new("alice-1"),
            SimDuration::from_secs(30),
        );
        let bob = LockManager::new(coord, SessionId::new("bob-1"), SimDuration::from_secs(30));

        let mut clock_a = Clock::new();
        let mut ctx_a = OpCtx::new(&mut clock_a, "alice".into());
        alice.try_lock(&mut ctx_a, "f").unwrap();
        // Alice "crashes": never unlocks. Bob waits past the lease and retries.
        let mut clock_b = Clock::new();
        clock_b.advance(SimDuration::from_secs(31));
        let mut ctx_b = OpCtx::new(&mut clock_b, "bob".into());
        assert!(!bob.is_locked(&mut ctx_b, "f").unwrap());
        bob.try_lock(&mut ctx_b, "f").unwrap();
    }

    #[test]
    fn unlock_is_idempotent() {
        let coord = setup();
        let mgr = LockManager::new(coord, SessionId::new("s"), SimDuration::from_secs(10));
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // Unlocking a never-locked file is fine.
        mgr.unlock(&mut ctx, "nope").unwrap();
        mgr.try_lock(&mut ctx, "f").unwrap();
        mgr.unlock(&mut ctx, "f").unwrap();
        mgr.unlock(&mut ctx, "f").unwrap();
    }

    #[test]
    fn lock_keys_are_namespaced() {
        let coord = setup();
        let mgr = LockManager::new(coord, SessionId::new("s"), SimDuration::from_secs(10));
        assert_eq!(mgr.lock_key("abc"), "/scfs/locks/abc");
        assert_eq!(mgr.session().as_str(), "s");
    }
}
