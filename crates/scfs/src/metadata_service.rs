//! The agent's local metadata service (paper §2.5.1, "Metadata service").
//!
//! Every file-system object is represented by a metadata tuple: an encoded
//! [`FileMetadata`] under the key `/scfs/meta{path}`. Shared objects' tuples
//! live in the coordination service (the consistency anchor). With private
//! name spaces (paper §2.7), the tuples of unshared objects live in a
//! coordination node of one that the agent owns: the zero-latency single
//! node of [`ReplicatedCoordinator::test`], behind the same
//! [`CoordinationService`] trait and under the same path rules, so each call
//! below has one body and only `MetadataService::is_private` picks the
//! store. A private file that becomes shared keeps its private tuple,
//! carrying the shared ACL: the marker that sends `get` and `delete` on to
//! the coordination service.
//!
//! A deleted object has no tuple: [`MetadataService::delete`] removes it, so
//! a path that was unlinked answers every call like one never created.
//!
//! A small, short-lived metadata cache absorbs the bursts of `stat`-like
//! calls that applications issue around every high-level action (opening a
//! document in an editor can trigger more than five `stat`s), which is the
//! knob explored in Figure 10(a). It also remembers this client's own
//! deletes. A delete that lands on a background lane, in the foreground's
//! future, hides the path from this client at once: `get` answers
//! `NotFound`, a listing leaves the name out, a rename from it fails, and a
//! create of it waits until the delete has landed.
//!
//! The service also holds the write-lock recipe (paper §2.5.1, "Locking
//! service"): a write-open of a shared file on a coordinated mount takes
//! `MetadataService::lock` and its close releases it. The lock is an
//! ephemeral coordination entry bound to the mount's session with a lease
//! ([`MetadataService::LOCK_LEASE`]) — a ZooKeeper ephemeral znode or a
//! DepSpace timed tuple — so the lock of a client that crashes before its
//! close expires on its own. Each lock key has a directory of its own,
//! `/scfs/locks/{storage id}`, so the coordination service's
//! directory-hash router spreads the locks of one directory's files.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloud_store::store::OpCtx;
use cloud_store::types::{AccountId, Acl};
use coord::error::CoordError;
use coord::replication::ReplicatedCoordinator;
use coord::service::{CoordinationService, SessionId};
use sim_core::time::{SimDuration, SimInstant};

use crate::error::ScfsError;
use crate::types::{is_child_of, is_under, FileMetadata};

/// Paths under this prefix are shared by convention: with PNSs enabled they
/// still go to the coordination service, whatever their ACL.
const SHARED_PREFIX: &str = "/shared";

/// Where the metadata tuples live in a store's key space.
const META_PREFIX: &str = "/scfs/meta";

/// Where the write locks live: one directory per object.
const LOCK_PREFIX: &str = "/scfs/locks";

/// The metadata service of one SCFS agent.
pub struct MetadataService {
    coord: Option<Arc<dyn CoordinationService>>,
    /// The private name space, when one is in use.
    private: Option<Arc<dyn CoordinationService>>,
    user: AccountId,
    /// The mount's session: the holder of its write locks.
    session: SessionId,
    /// What this client last learned of each path — its tuple, or `None`
    /// for a path it deleted — and the instant it learned it: for an
    /// absence, the instant the delete commits. Ordered so sweeps
    /// ([`MetadataService::rename`]'s prefix retain) visit entries in a
    /// run-independent order.
    cache: BTreeMap<String, (Option<FileMetadata>, SimInstant)>,
    cache_expiry: SimDuration,
}

impl std::fmt::Debug for MetadataService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataService")
            .field("user", &self.user)
            .field("private_tuples", &self.private_tuples())
            .field("cache_entries", &self.cache.len())
            .finish()
    }
}

/// `e`, a store's answer about the tuple of `path`, in the file system's
/// terms.
fn path_error(path: &str, e: CoordError) -> ScfsError {
    match e {
        CoordError::NotFound { .. } => ScfsError::not_found(path),
        CoordError::AlreadyExists { .. } => ScfsError::AlreadyExists {
            path: path.to_string(),
        },
        CoordError::AccessDenied { .. } => ScfsError::PermissionDenied {
            path: path.to_string(),
        },
        other => other.into(),
    }
}

impl MetadataService {
    /// How long a write lock outlives a client that never releases it: long
    /// enough for a whole-file upload to any of the clouds, short enough that
    /// a crashed client does not block writers for long.
    pub const LOCK_LEASE: SimDuration = SimDuration::from_secs(120);

    /// Creates a metadata service for `user`'s mount `session`.
    ///
    /// * `coord == None` — non-sharing mode: everything lives in the PNS.
    /// * `use_pns == false` — every object gets its own coordination tuple
    ///   (the worst-case configuration used in the headline experiments).
    pub fn new(
        coord: Option<Arc<dyn CoordinationService>>,
        use_pns: bool,
        user: AccountId,
        session: SessionId,
        cache_expiry: SimDuration,
    ) -> Self {
        let private = (use_pns || coord.is_none())
            .then(|| Arc::new(ReplicatedCoordinator::test()) as Arc<dyn CoordinationService>);
        MetadataService {
            coord,
            private,
            user,
            session,
            cache: BTreeMap::new(),
            cache_expiry,
        }
    }

    /// Number of tuples in the private name space (0 without one).
    pub fn private_tuples(&self) -> usize {
        self.private.as_ref().map_or(0, |p| p.entry_count())
    }

    fn coord_key(path: &str) -> String {
        format!("{META_PREFIX}{path}")
    }

    /// Whether `path`/`metadata` is handled by the PNS (true) or by the
    /// coordination service (false).
    fn is_private(&self, path: &str, metadata: Option<&FileMetadata>) -> bool {
        if self.private.is_none() {
            return false;
        }
        if self.coord.is_none() {
            return true;
        }
        !path.starts_with(SHARED_PREFIX) && metadata.is_none_or(|md| !md.is_shared())
    }

    /// The private name space or the coordination service.
    fn store(&self, private: bool) -> Result<&dyn CoordinationService, ScfsError> {
        let store = if private { &self.private } else { &self.coord };
        store
            .as_deref()
            .ok_or_else(|| ScfsError::invalid("shared object requires a coordination service"))
    }

    /// Every store this service has, the private name space first.
    fn stores(&self) -> impl Iterator<Item = &dyn CoordinationService> {
        [&self.private, &self.coord]
            .into_iter()
            .flatten()
            .map(|s| &**s)
    }

    /// The cached answer for `path` at `now`, if one is still fresh: the
    /// tuple, or `Err(NotFound)` for a path this client deleted. With the
    /// cache off it holds absences only, and drops those that have landed.
    fn cache_get(
        &mut self,
        path: &str,
        now: SimInstant,
    ) -> Option<Result<FileMetadata, ScfsError>> {
        if self.cache_expiry == SimDuration::ZERO {
            self.cache.retain(|_, (_, landed)| now < *landed);
        }
        let (md, learned) = self.cache.get(path)?;
        if now >= *learned + self.cache_expiry {
            return None;
        }
        Some(md.clone().ok_or_else(|| ScfsError::not_found(path)))
    }

    /// The instant this client's own delete of `path` lands, while the path
    /// is cached as absent at `now`.
    fn deleted_until(&self, path: &str, now: SimInstant) -> Option<SimInstant> {
        match self.cache.get(path) {
            Some((None, landed)) if now < *landed + self.cache_expiry => Some(*landed),
            _ => None,
        }
    }

    /// Caches what this client learned of `path` at `now`. An absence is
    /// kept even with the cache off: a delete committed at a lane's `now`
    /// must hide the path from the foreground until then.
    fn cache_put(&mut self, path: &str, md: Option<&FileMetadata>, now: SimInstant) {
        if self.cache_expiry > SimDuration::ZERO || md.is_none() {
            self.cache.insert(path.to_string(), (md.cloned(), now));
        }
    }

    /// The tuple of `path` in the store `private` names, uncached, at its version.
    fn read(
        &self,
        ctx: &mut OpCtx<'_>,
        private: bool,
        path: &str,
    ) -> Result<FileMetadata, ScfsError> {
        let entry = self
            .store(private)?
            .get(ctx, &Self::coord_key(path))
            .map_err(|e| path_error(path, e))?;
        let mut md = FileMetadata::decode(&entry.value)
            .map_err(|e| ScfsError::invalid(format!("corrupt metadata tuple: {e}")))?;
        // After a rename the tuple is stored under the new key but its `path`
        // field still carries the old name; the key is authoritative.
        md.path = path.to_string();
        md.tuple_version = Some(entry.version);
        Ok(md)
    }

    /// Reads the metadata of `path`. A path that routes to the private name
    /// space is resolved there without touching the coordination service —
    /// unless its tuple is a marker.
    pub fn get(&mut self, ctx: &mut OpCtx<'_>, path: &str) -> Result<FileMetadata, ScfsError> {
        if let Some(cached) = self.cache_get(path, ctx.clock.now()) {
            return cached;
        }
        let private = self.is_private(path, None);
        let mut md = self.read(ctx, private, path)?;
        if private && !self.is_private(path, Some(&md)) {
            md = self.read(ctx, false, path)?;
        }
        self.cache_put(path, Some(&md), ctx.clock.now());
        Ok(md)
    }

    /// One `cas` of `metadata`'s tuple in the store `private` names, on its
    /// version (none yet: an exclusive create); returns it at the new one.
    fn cas(
        &mut self,
        ctx: &mut OpCtx<'_>,
        private: bool,
        mut metadata: FileMetadata,
    ) -> Result<FileMetadata, ScfsError> {
        let (store, key) = (self.store(private)?, Self::coord_key(&metadata.path));
        let written = store.cas(ctx, &key, metadata.tuple_version, metadata.encode());
        metadata.tuple_version = Some(written.map_err(|e| path_error(&metadata.path, e))?);
        self.cache_put(&metadata.path, Some(&metadata), ctx.clock.now());
        Ok(metadata)
    }

    /// Writes `metadata` with `own`, the fields the call owns, applied, by a
    /// `cas` on its version (a create, once this client's delete of the name
    /// has landed). A refused one re-reads the tuple past the cache and
    /// re-applies `own`; one gone or of another object is `NotFound`.
    pub fn write(
        &mut self,
        ctx: &mut OpCtx<'_>,
        mut metadata: FileMetadata,
        own: impl Fn(&mut FileMetadata),
    ) -> Result<FileMetadata, ScfsError> {
        let (path, id) = (metadata.path.clone(), metadata.storage_id.clone());
        if let Some(landed) = self.deleted_until(&path, ctx.clock.now()) {
            ctx.clock.advance_to(landed);
        }
        loop {
            let private = self.is_private(&path, Some(&metadata));
            own(&mut metadata);
            match self.cas(ctx, private, metadata) {
                Err(ScfsError::Coordination(CoordError::VersionMismatch { .. })) => {}
                written => return written,
            }
            self.cache.remove(&path);
            metadata = self.get(ctx, &path)?;
            if metadata.storage_id != id {
                return Err(ScfsError::not_found(&path));
            }
        }
    }

    /// Deletes the metadata of `path`: its private tuple, and the
    /// coordination tuple a marker stands for. This client then caches the
    /// path as absent from the instant the delete committed.
    pub fn delete(&mut self, ctx: &mut OpCtx<'_>, path: &str) -> Result<(), ScfsError> {
        self.cache.remove(path);
        let key = Self::coord_key(path);
        let mut private = self.is_private(path, None);
        if private {
            let md = self.read(ctx, true, path)?;
            self.store(true)?
                .delete(ctx, &key)
                .map_err(|e| path_error(path, e))?;
            private = self.is_private(path, Some(&md));
        }
        if !private {
            self.store(false)?
                .delete(ctx, &key)
                .map_err(|e| path_error(path, e))?;
        }
        self.cache_put(path, None, ctx.clock.now());
        Ok(())
    }

    /// Lists the direct children of directory `path`, from every store,
    /// without the ones this client deleted.
    pub fn list_children(
        &mut self,
        ctx: &mut OpCtx<'_>,
        path: &str,
    ) -> Result<Vec<String>, ScfsError> {
        let prefix = if path == "/" {
            Self::coord_key("/")
        } else {
            format!("{}/", Self::coord_key(path))
        };
        let mut children: Vec<String> = Vec::new();
        for store in self.stores() {
            // The keys come back sorted and distinct, and stay so with their
            // common `/scfs/meta` cut off in place.
            children.extend(store.list(ctx, &prefix)?.into_iter().filter_map(|mut key| {
                if !key.starts_with(META_PREFIX) {
                    return None;
                }
                key.drain(..META_PREFIX.len());
                is_child_of(&key, path).then_some(key)
            }));
        }
        // A marker and its coordination tuple name one file.
        if self.private.is_some() && self.coord.is_some() {
            children.sort();
            children.dedup();
        }
        let now = ctx.clock.now();
        children.retain(|child| self.deleted_until(child, now).is_none());
        Ok(children)
    }

    /// Renames `from` (and everything under it) to `to`, in every store. A
    /// path operation: `/a` names `/a` and the subtree under `/a/`, never the
    /// sibling `/ab`. What was cached of either tree is dropped — `to`'s too,
    /// so a clobbered destination is not served from its old tuple until the
    /// cache expires. A rename of a path this client is deleting waits for
    /// the delete to land, as a create does, and moves what is left under it.
    pub fn rename(
        &mut self,
        ctx: &mut OpCtx<'_>,
        from: &str,
        to: &str,
    ) -> Result<usize, ScfsError> {
        let now = ctx.clock.now();
        ctx.clock
            .advance_to(self.deleted_until(from, now).unwrap_or(now));
        self.cache
            .retain(|k, _| !is_under(k, from) && !is_under(k, to));
        let (old, new) = (Self::coord_key(from), Self::coord_key(to));
        let mut moved = 0usize;
        for store in self.stores() {
            moved += store
                .rename_prefix(ctx, &old, &new)
                .map_err(|e| path_error(from, e))?;
        }
        if moved == 0 {
            return Err(ScfsError::not_found(from));
        }
        Ok(moved)
    }

    /// [`Self::write`]s the ACL with `grant`. A file outside `/shared` keeps
    /// its private tuple, which carries the new ACL; once that ACL shares the
    /// file, the tuple is a marker and the coordination service holds the
    /// file's tuple too, with the entry ACL set so the grantee can actually
    /// read it (paper §2.7).
    pub fn set_acl(
        &mut self,
        ctx: &mut OpCtx<'_>,
        metadata: FileMetadata,
        grant: impl Fn(&mut Acl),
    ) -> Result<FileMetadata, ScfsError> {
        let private = self.is_private(&metadata.path, Some(&metadata));
        let mut md = self.write(ctx, metadata, |md| grant(&mut md.acl))?;
        if self.is_private(&md.path, Some(&md)) {
            return Ok(md);
        }
        let key = Self::coord_key(&md.path);
        if private {
            md.tuple_version = None;
            md = match self.cas(ctx, false, md.clone()) {
                // A rename onto the name left a tuple of the object it held.
                Err(ScfsError::AlreadyExists { .. }) => {
                    md.tuple_version = Some(self.store(false)?.get(ctx, &key)?.version);
                    self.cas(ctx, false, md)?
                }
                written => written?,
            };
        }
        self.store(false)?.set_acl(ctx, &key, md.acl.clone())?;
        // The entry ACL is one more update of the entry.
        md.tuple_version = md.tuple_version.map(|v| v + 1);
        self.cache_put(&md.path, Some(&md), ctx.clock.now());
        Ok(md)
    }

    /// The coordination key of the write lock on the object stored under
    /// `id`: alone in a directory of its own.
    pub fn lock_key(id: &str) -> String {
        format!("{LOCK_PREFIX}/{id}/write")
    }

    /// Whether a write-open of the file `metadata` describes takes its write
    /// lock: a shared file on a coordinated mount. A private file, and every
    /// file of a non-sharing mount, has no other writer to exclude.
    pub(crate) fn write_open_locks(&self, metadata: &FileMetadata) -> bool {
        self.coord.is_some() && !self.is_private(&metadata.path, Some(metadata))
    }

    /// Takes this session's write lock on the file `metadata` describes. The
    /// lock is re-entrant per session: re-taking a lock this session holds
    /// succeeds and creates no entry, so a release of ours still in flight
    /// deletes the one entry there is — a write-open must wait for it first.
    /// A lock another live session holds is [`ScfsError::Locked`] on the
    /// file's path.
    pub(crate) fn lock(
        &self,
        ctx: &mut OpCtx<'_>,
        metadata: &FileMetadata,
    ) -> Result<(), ScfsError> {
        let (coord, session) = (self.store(false)?, &self.session);
        let value = session.as_str().as_bytes().to_vec();
        let key = Self::lock_key(&metadata.storage_id);
        match coord.create_ephemeral(ctx, &key, value, session, Self::LOCK_LEASE) {
            Ok(()) => Ok(()),
            Err(CoordError::LockHeld { holder, .. }) if holder == session.as_str() => Ok(()),
            Err(CoordError::LockHeld { holder, .. }) => Err(ScfsError::Locked {
                path: metadata.path.clone(),
                holder,
            }),
            Err(e) => Err(e.into()),
        }
    }

    /// Releases this session's write lock on the object stored under `id`.
    /// Releasing a lock that is not held (it expired, say) is no error.
    pub(crate) fn unlock(&self, ctx: &mut OpCtx<'_>, id: &str) -> Result<(), ScfsError> {
        match self.store(false)?.delete(ctx, &Self::lock_key(id)) {
            Ok(()) | Err(CoordError::NotFound { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// The user this service acts for.
    pub fn user(&self) -> &AccountId {
        &self.user
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coord::router::dirname;
    use sim_core::time::Clock;

    fn coord() -> Arc<dyn CoordinationService> {
        Arc::new(ReplicatedCoordinator::test())
    }

    /// Alice's metadata service, on her mount session `alice-1`.
    fn service(
        coord: Option<Arc<dyn CoordinationService>>,
        use_pns: bool,
        cache_expiry: SimDuration,
    ) -> MetadataService {
        let session = SessionId::new("alice-1");
        MetadataService::new(coord, use_pns, "alice".into(), session, cache_expiry)
    }

    /// Bob's metadata service over `coord`, on his mount session `bob-1`.
    fn bobs(coord: Arc<dyn CoordinationService>) -> MetadataService {
        let session = SessionId::new("bob-1");
        MetadataService::new(Some(coord), false, "bob".into(), session, SimDuration::ZERO)
    }

    fn md(path: &str) -> FileMetadata {
        FileMetadata::new_file(
            path,
            AccountId::new("alice"),
            format!("id{path}"),
            SimInstant::EPOCH,
        )
    }

    #[test]
    fn shared_metadata_goes_to_coordination_service() {
        let c = coord();
        let mut svc = service(Some(c.clone()), false, SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.write(&mut ctx, md("/docs/a"), |_| {}).unwrap();
        assert_eq!(c.access_count(), 1, "a create is one coordination call");
        assert_eq!(svc.get(&mut ctx, "/docs/a").unwrap().path, "/docs/a");
        assert_eq!(c.access_count(), 2, "an uncached lookup is one more");
    }

    #[test]
    fn private_metadata_stays_in_the_pns() {
        let c = coord();
        let mut svc = service(Some(c.clone()), true, SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.write(&mut ctx, md("/docs/private"), |_| {}).unwrap();
        assert!(svc.get(&mut ctx, "/docs/private").is_ok());
        assert_eq!(
            c.access_count(),
            0,
            "private files must not touch the coordination service"
        );
        // Files under the shared prefix still use the coordination service.
        svc.write(&mut ctx, md("/shared/group-report"), |_| {})
            .unwrap();
        assert_eq!(c.access_count(), 1);
    }

    #[test]
    fn metadata_cache_absorbs_repeated_stats() {
        let c = coord();
        let mut svc = service(Some(c.clone()), false, SimDuration::from_millis(500));
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.write(&mut ctx, md("/f"), |_| {}).unwrap();
        // Past the expiry of what the create cached, a burst of stats within
        // 500 ms reads the coordination service once.
        clock.advance(SimDuration::from_secs(1));
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let before = c.access_count();
        for _ in 0..5 {
            svc.get(&mut ctx, "/f").unwrap();
        }
        assert_eq!(c.access_count(), before + 1);
        // After the expiry the next stat goes to the coordination service again.
        clock.advance(SimDuration::from_secs(1));
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.get(&mut ctx, "/f").unwrap();
        assert_eq!(c.access_count(), before + 2);
    }

    #[test]
    fn setfacl_moves_private_file_to_coordination_service() {
        use cloud_store::types::Permission;
        let c = coord();
        let mut svc = service(Some(c.clone()), true, SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.write(&mut ctx, md("/docs/report"), |_| {}).unwrap();
        assert_eq!(c.access_count(), 0);
        let metadata = svc.get(&mut ctx, "/docs/report").unwrap();
        let grant = |acl: &mut Acl| acl.grant("bob".into(), Permission::Read);
        let updated = svc.set_acl(&mut ctx, metadata, grant).unwrap();
        assert!(updated.is_shared());
        // The grantee reads the coordination tuple...
        let mut bob_clock = Clock::new();
        let mut bob = OpCtx::new(&mut bob_clock, "bob".into());
        let tuple = c.get(&mut bob, "/scfs/meta/docs/report").unwrap();
        assert!(FileMetadata::decode(&tuple.value).unwrap().is_shared());
        // ...and the owner still finds the file, through the private marker:
        // one coordination read.
        let reads = c.access_count();
        assert!(svc.get(&mut ctx, "/docs/report").unwrap().is_shared());
        assert_eq!(c.access_count(), reads + 1);
        assert_eq!(svc.private_tuples(), 1);
        // Deleting the file removes both tuples.
        svc.delete(&mut ctx, "/docs/report").unwrap();
        assert_eq!(svc.private_tuples(), 0);
        assert!(c.get(&mut ctx, "/scfs/meta/docs/report").is_err());
    }

    #[test]
    fn a_delete_landing_later_hides_the_path_until_then() {
        let mut svc = service(Some(coord()), false, SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.write(&mut ctx, md("/d/f"), |_| {}).unwrap();
        // The delete commits ten seconds into the foreground's future, as
        // one on a background lane does.
        let mut lane = Clock::new();
        lane.advance_to(clock.now() + SimDuration::from_secs(10));
        let landed = lane.now();
        svc.delete(&mut OpCtx::new(&mut lane, "alice".into()), "/d/f")
            .unwrap();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        assert!(svc.get(&mut ctx, "/d/f").is_err());
        assert!(svc.list_children(&mut ctx, "/d").unwrap().is_empty());
        assert!(matches!(
            svc.rename(&mut ctx, "/d/f", "/d/g"),
            Err(ScfsError::NotFound { .. })
        ));
        // A create of the name waits for the delete.
        svc.write(&mut ctx, md("/d/f"), |_| {}).unwrap();
        assert_eq!(ctx.clock.now(), landed);
        assert!(svc.get(&mut ctx, "/d/f").is_ok());
    }

    #[test]
    fn with_the_cache_off_landed_deletes_leave_nothing_cached() {
        let mut svc = service(Some(coord()), false, SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        for i in 0..10 {
            let path = format!("/f{i}");
            svc.write(&mut ctx, md(&path), |_| {}).unwrap();
            svc.delete(&mut ctx, &path).unwrap();
        }
        assert!(svc.get(&mut ctx, "/f0").is_err());
        assert!(svc.cache.is_empty(), "{svc:?}");
    }

    #[test]
    fn non_sharing_mode_works_without_coordination() {
        let mut svc = service(None, true, SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.write(&mut ctx, md("/f"), |_| {}).unwrap();
        assert!(svc.get(&mut ctx, "/f").is_ok());
        assert!(svc.is_private("/anything", None));
        assert_eq!(svc.private_tuples(), 1);
    }

    #[test]
    fn lock_is_re_entrant_per_session() {
        let c = coord();
        let alice = service(Some(c.clone()), false, SimDuration::ZERO);
        let bob = bobs(c.clone());
        let file = md("/shared/doc");
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        alice.lock(&mut ctx, &file).unwrap();
        alice.lock(&mut ctx, &file).unwrap();
        let key = MetadataService::lock_key(&file.storage_id);
        assert_eq!(
            c.get(&mut ctx, &key).unwrap().version,
            1,
            "a re-take writes nothing"
        );
        // One release frees it for everyone.
        alice.unlock(&mut ctx, &file.storage_id).unwrap();
        bob.lock(&mut OpCtx::new(&mut clock, "bob".into()), &file)
            .unwrap();
    }

    #[test]
    fn second_session_cannot_lock_a_held_file() {
        let c = coord();
        let alice = service(Some(c.clone()), false, SimDuration::ZERO);
        let bob = bobs(c);
        let file = md("/shared/doc");
        let mut clock = Clock::new();
        alice
            .lock(&mut OpCtx::new(&mut clock, "alice".into()), &file)
            .unwrap();
        // The refusal names the file, not the coordination key.
        assert_eq!(
            bob.lock(&mut OpCtx::new(&mut clock, "bob".into()), &file),
            Err(ScfsError::Locked {
                path: "/shared/doc".into(),
                holder: "alice-1".into(),
            })
        );
        // After alice unlocks, bob succeeds.
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        alice.unlock(&mut ctx, &file.storage_id).unwrap();
        bob.lock(&mut OpCtx::new(&mut clock, "bob".into()), &file)
            .unwrap();
    }

    #[test]
    fn crashed_clients_lock_expires() {
        let c = coord();
        let alice = service(Some(c.clone()), false, SimDuration::ZERO);
        let bob = bobs(c);
        let file = md("/shared/doc");
        let mut clock = Clock::new();
        alice
            .lock(&mut OpCtx::new(&mut clock, "alice".into()), &file)
            .unwrap();
        // Alice "crashes": she never unlocks. Bob is refused within the
        // lease and succeeds past it.
        let second = SimDuration::from_secs(1);
        let lease_end = clock.now() + MetadataService::LOCK_LEASE;
        clock.advance(MetadataService::LOCK_LEASE.saturating_sub(second));
        let mut ctx = OpCtx::new(&mut clock, "bob".into());
        assert!(matches!(
            bob.lock(&mut ctx, &file),
            Err(ScfsError::Locked { .. })
        ));
        clock.advance_to(lease_end + second);
        bob.lock(&mut OpCtx::new(&mut clock, "bob".into()), &file)
            .unwrap();
    }

    #[test]
    fn unlock_is_idempotent() {
        let svc = service(Some(coord()), false, SimDuration::ZERO);
        let file = md("/shared/doc");
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        // Unlocking a never-locked file is fine.
        svc.unlock(&mut ctx, "nope").unwrap();
        svc.lock(&mut ctx, &file).unwrap();
        svc.unlock(&mut ctx, &file.storage_id).unwrap();
        svc.unlock(&mut ctx, &file.storage_id).unwrap();
    }

    #[test]
    fn lock_keys_are_namespaced() {
        let key = MetadataService::lock_key("alice-f3");
        assert_eq!(key, "/scfs/locks/alice-f3/write");
        // Its directory is the lock's own: the router hashes
        // `/scfs/locks/alice-f3`.
        assert_eq!(dirname(&key), "/scfs/locks/alice-f3");
    }
}
