//! The agent's local metadata service (paper §2.5.1, "Metadata service").
//!
//! Every file-system object is represented by a metadata tuple. Shared
//! objects live in the coordination service (the consistency anchor); private
//! objects live in the agent's [`PrivateNameSpace`]. A small, short-lived
//! metadata cache absorbs the bursts of `stat`-like calls that applications
//! issue around every high-level action (opening a document in an editor can
//! trigger more than five `stat`s), which is the knob explored in
//! Figure 10(a).

use std::collections::BTreeMap;
use std::sync::Arc;

use cloud_store::store::OpCtx;
use cloud_store::types::{AccountId, Acl};
use coord::service::CoordinationService;
use sim_core::time::{SimDuration, SimInstant};

use crate::error::ScfsError;
use crate::pns::PrivateNameSpace;
use crate::types::{is_child_of, is_under, parent_of, FileMetadata};

/// Counters describing how the metadata service resolved its lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataStats {
    /// Lookups answered from the short-lived metadata cache.
    pub cache_hits: u64,
    /// Lookups answered by the private name space (no remote access).
    pub pns_hits: u64,
    /// Lookups that had to query the coordination service.
    pub coordination_reads: u64,
    /// Updates sent to the coordination service.
    pub coordination_writes: u64,
}

/// Paths under this prefix are shared by convention: with PNSs enabled they
/// still go to the coordination service, whatever their ACL.
const SHARED_PREFIX: &str = "/shared";

/// Where the metadata tuples live in the coordination service's key space.
const META_PREFIX: &str = "/scfs/meta";

/// The metadata service of one SCFS agent.
pub struct MetadataService {
    coord: Option<Arc<dyn CoordinationService>>,
    pns: Option<PrivateNameSpace>,
    user: AccountId,
    /// Ordered so expiry sweeps ([`MetadataService::rename`]'s prefix
    /// retain) visit entries in a run-independent order.
    cache: BTreeMap<String, (FileMetadata, SimInstant)>,
    cache_expiry: SimDuration,
    stats: MetadataStats,
}

impl std::fmt::Debug for MetadataService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetadataService")
            .field("user", &self.user)
            .field("pns", &self.pns.as_ref().map(|p| p.len()))
            .field("cache_entries", &self.cache.len())
            .finish()
    }
}

impl MetadataService {
    /// Creates a metadata service.
    ///
    /// * `coord == None` — non-sharing mode: everything lives in the PNS.
    /// * `use_pns == false` — every object gets its own coordination tuple
    ///   (the worst-case configuration used in the headline experiments).
    pub fn new(
        coord: Option<Arc<dyn CoordinationService>>,
        use_pns: bool,
        user: AccountId,
        cache_expiry: SimDuration,
    ) -> Self {
        let pns = if use_pns || coord.is_none() {
            Some(PrivateNameSpace::new())
        } else {
            None
        };
        MetadataService {
            coord,
            pns,
            user,
            cache: BTreeMap::new(),
            cache_expiry,
            stats: MetadataStats::default(),
        }
    }

    /// Access to the lookup counters.
    pub fn stats(&self) -> MetadataStats {
        self.stats
    }

    /// Access to the private name space, if one is in use.
    pub fn pns(&self) -> Option<&PrivateNameSpace> {
        self.pns.as_ref()
    }

    fn coord_key(path: &str) -> String {
        format!("{META_PREFIX}{path}")
    }

    /// Whether `path`/`metadata` is handled by the PNS (true) or by the
    /// coordination service (false).
    pub fn is_private(&self, path: &str, metadata: Option<&FileMetadata>) -> bool {
        let Some(_) = self.pns else {
            return false;
        };
        if self.coord.is_none() {
            return true;
        }
        if path.starts_with(SHARED_PREFIX) {
            return false;
        }
        match metadata {
            Some(md) => !md.is_shared(),
            None => true,
        }
    }

    fn cache_get(&mut self, path: &str, now: SimInstant) -> Option<FileMetadata> {
        match self.cache.get(path) {
            Some((md, cached_at)) => {
                if now.duration_since(*cached_at) < self.cache_expiry {
                    self.stats.cache_hits += 1;
                    Some(md.clone())
                } else {
                    None
                }
            }
            None => None,
        }
    }

    fn cache_put(&mut self, md: &FileMetadata, now: SimInstant) {
        if self.cache_expiry > SimDuration::ZERO {
            self.cache.insert(md.path.clone(), (md.clone(), now));
        }
    }

    fn cache_invalidate(&mut self, path: &str) {
        self.cache.remove(path);
    }

    /// Reads the metadata of `path`.
    pub fn get(&mut self, ctx: &mut OpCtx<'_>, path: &str) -> Result<FileMetadata, ScfsError> {
        let now = ctx.clock.now();
        if let Some(md) = self.cache_get(path, now) {
            return Ok(md);
        }
        // Private files are resolved against the PNS without touching the
        // coordination service.
        if let Some(pns) = &self.pns {
            if let Some(md) = pns.get(path) {
                if self.is_private(path, Some(md)) {
                    self.stats.pns_hits += 1;
                    let md = md.clone();
                    self.cache_put(&md, now);
                    return Ok(md);
                }
            }
        }
        // A path that routes to the private name space and is absent from it
        // does not exist as far as this user is concerned; consulting the
        // coordination service would defeat the whole point of PNSs.
        if self.pns.is_some() && self.is_private(path, None) {
            return Err(ScfsError::not_found(path));
        }
        let Some(coord) = &self.coord else {
            return Err(ScfsError::not_found(path));
        };
        self.stats.coordination_reads += 1;
        let entry = coord
            .get(ctx, &Self::coord_key(path))
            .map_err(|e| match e {
                coord::error::CoordError::NotFound { .. } => ScfsError::not_found(path),
                other => other.into(),
            })?;
        let mut md = FileMetadata::decode(&entry.value)
            .map_err(|e| ScfsError::invalid(format!("corrupt metadata tuple: {e}")))?;
        // After a rename the tuple is stored under the new key but its `path`
        // field still carries the old name; the key is authoritative.
        md.path = path.to_string();
        let now = ctx.clock.now();
        self.cache_put(&md, now);
        Ok(md)
    }

    /// Creates the metadata of a new object (exclusive).
    pub fn create(&mut self, ctx: &mut OpCtx<'_>, metadata: FileMetadata) -> Result<(), ScfsError> {
        let path = metadata.path.clone();
        if self.is_private(&path, Some(&metadata)) {
            let Some(pns) = self.pns.as_mut() else {
                return Err(ScfsError::invalid(
                    "private path routed to a service with no private name space",
                ));
            };
            if pns.get(&path).is_some() {
                return Err(ScfsError::AlreadyExists { path });
            }
            pns.insert(metadata.clone());
        } else {
            let coord = self.coord.as_ref().ok_or_else(|| {
                ScfsError::invalid("shared object requires a coordination service")
            })?;
            self.stats.coordination_writes += 1;
            coord
                .cas(ctx, &Self::coord_key(&path), None, metadata.encode())
                .map_err(|e| match e {
                    coord::error::CoordError::AlreadyExists { .. } => {
                        ScfsError::AlreadyExists { path: path.clone() }
                    }
                    other => other.into(),
                })?;
        }
        let now = ctx.clock.now();
        self.cache_put(&metadata, now);
        Ok(())
    }

    /// Updates the metadata of an existing object.
    pub fn update(&mut self, ctx: &mut OpCtx<'_>, metadata: FileMetadata) -> Result<(), ScfsError> {
        let path = metadata.path.clone();
        if self.is_private(&path, Some(&metadata)) {
            let Some(pns) = self.pns.as_mut() else {
                return Err(ScfsError::invalid(
                    "private path routed to a service with no private name space",
                ));
            };
            pns.insert(metadata.clone());
        } else {
            let coord = self.coord.as_ref().ok_or_else(|| {
                ScfsError::invalid("shared object requires a coordination service")
            })?;
            self.stats.coordination_writes += 1;
            coord.put(ctx, &Self::coord_key(&path), metadata.encode())?;
        }
        let now = ctx.clock.now();
        self.cache_put(&metadata, now);
        Ok(())
    }

    /// Updates only the local caches (used by the non-blocking close path,
    /// which defers the coordination-service update to the background upload
    /// but must let this client observe its own write immediately).
    pub fn update_local(&mut self, metadata: FileMetadata, now: SimInstant) {
        if self.is_private(&metadata.path, Some(&metadata)) {
            if let Some(pns) = self.pns.as_mut() {
                pns.insert(metadata.clone());
            }
        }
        self.cache.insert(metadata.path.clone(), (metadata, now));
    }

    /// Deletes the metadata of `path`.
    pub fn delete(&mut self, ctx: &mut OpCtx<'_>, path: &str) -> Result<(), ScfsError> {
        self.cache_invalidate(path);
        if let Some(pns) = self.pns.as_mut() {
            if pns.remove(path).is_some() {
                return Ok(());
            }
        }
        let Some(coord) = &self.coord else {
            return Err(ScfsError::not_found(path));
        };
        self.stats.coordination_writes += 1;
        coord
            .delete(ctx, &Self::coord_key(path))
            .map_err(|e| match e {
                coord::error::CoordError::NotFound { .. } => ScfsError::not_found(path),
                other => other.into(),
            })
    }

    /// Lists the direct children of directory `path`.
    pub fn list_children(
        &mut self,
        ctx: &mut OpCtx<'_>,
        path: &str,
    ) -> Result<Vec<String>, ScfsError> {
        let mut children: Vec<String> = Vec::new();
        if let Some(pns) = &self.pns {
            children.extend(pns.children_of(path));
        }
        let private = children.len();
        if let Some(coord) = &self.coord {
            self.stats.coordination_reads += 1;
            let prefix = if path == "/" {
                Self::coord_key("/")
            } else {
                format!("{}/", Self::coord_key(path))
            };
            // The keys come back sorted and distinct, and stay so with their
            // common `/scfs/meta` cut off in place.
            children.extend(coord.list(ctx, &prefix)?.into_iter().filter_map(|mut key| {
                if !key.starts_with(META_PREFIX) {
                    return None;
                }
                key.drain(..META_PREFIX.len());
                is_child_of(&key, path).then_some(key)
            }));
        }
        if private > 0 {
            children.sort();
            children.dedup();
        }
        Ok(children)
    }

    /// Renames `from` (and everything under it) to `to`. A path operation:
    /// `/a` names `/a` and the subtree under `/a/`, never the sibling `/ab`.
    /// What was cached of either tree is dropped — `to`'s too, so a clobbered
    /// destination is not served from its old tuple until the cache expires.
    pub fn rename(
        &mut self,
        ctx: &mut OpCtx<'_>,
        from: &str,
        to: &str,
    ) -> Result<usize, ScfsError> {
        self.cache
            .retain(|k, _| !is_under(k, from) && !is_under(k, to));
        let mut moved = 0usize;
        if let Some(pns) = self.pns.as_mut() {
            moved += pns.rename_prefix(from, to);
        }
        if let Some(coord) = &self.coord {
            self.stats.coordination_writes += 1;
            moved += coord.rename_prefix(ctx, &Self::coord_key(from), &Self::coord_key(to))?;
        }
        if moved == 0 {
            return Err(ScfsError::not_found(from));
        }
        Ok(moved)
    }

    /// Applies an ACL change: updates the metadata tuple, moves it between
    /// PNS and coordination service if its sharing status changed, and sets
    /// the coordination-service entry ACL so the grantee can actually read it.
    pub fn set_acl(
        &mut self,
        ctx: &mut OpCtx<'_>,
        mut metadata: FileMetadata,
        acl: Acl,
    ) -> Result<FileMetadata, ScfsError> {
        let was_private = self.is_private(&metadata.path, Some(&metadata));
        metadata.acl = acl.clone();
        let now_private = self.is_private(&metadata.path, Some(&metadata));

        if now_private {
            // Still private (e.g. all grants removed): keep it in the PNS.
            if let Some(pns) = self.pns.as_mut() {
                pns.insert(metadata.clone());
            }
        } else {
            if was_private {
                // The file became shared: its metadata moves from the PNS to
                // a coordination-service tuple (paper §2.7).
                if let Some(pns) = self.pns.as_mut() {
                    pns.remove(&metadata.path);
                }
            }
            let coord = self.coord.as_ref().ok_or_else(|| {
                ScfsError::invalid("shared object requires a coordination service")
            })?;
            self.stats.coordination_writes += 1;
            coord.put(ctx, &Self::coord_key(&metadata.path), metadata.encode())?;
            coord.set_acl(ctx, &Self::coord_key(&metadata.path), acl)?;
        }
        let now = ctx.clock.now();
        self.cache_put(&metadata, now);
        Ok(metadata)
    }

    /// Whether `path`'s parent directory exists (the root always does).
    pub fn parent_exists(&mut self, ctx: &mut OpCtx<'_>, path: &str) -> bool {
        let parent = parent_of(path);
        if parent == "/" {
            return true;
        }
        self.get(ctx, &parent).is_ok()
    }

    /// All private files known to this agent (used by the garbage collector
    /// and the PNS persistence path).
    pub fn private_files(&self) -> Vec<FileMetadata> {
        self.pns
            .as_ref()
            .map(|p| p.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The user this service acts for.
    pub fn user(&self) -> &AccountId {
        &self.user
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coord::replication::ReplicatedCoordinator;
    use sim_core::time::Clock;

    fn coord() -> Arc<dyn CoordinationService> {
        Arc::new(ReplicatedCoordinator::test())
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
        let mut svc =
            MetadataService::new(Some(c.clone()), false, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/docs/a")).unwrap();
        assert_eq!(svc.get(&mut ctx, "/docs/a").unwrap().path, "/docs/a");
        assert!(
            c.access_count() >= 2,
            "coordination service should have been used"
        );
        assert!(svc.stats().coordination_reads >= 1);
    }

    #[test]
    fn private_metadata_stays_in_the_pns() {
        let c = coord();
        let mut svc =
            MetadataService::new(Some(c.clone()), true, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/docs/private")).unwrap();
        assert!(svc.get(&mut ctx, "/docs/private").is_ok());
        assert_eq!(
            c.access_count(),
            0,
            "private files must not touch the coordination service"
        );
        assert_eq!(svc.stats().pns_hits, 1);
        // Files under the shared prefix still use the coordination service.
        svc.create(&mut ctx, md("/shared/group-report")).unwrap();
        assert!(c.access_count() > 0);
    }

    #[test]
    fn metadata_cache_absorbs_repeated_stats() {
        let c = coord();
        let mut svc = MetadataService::new(
            Some(c.clone()),
            false,
            "alice".into(),
            SimDuration::from_millis(500),
        );
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/f")).unwrap();
        let before = c.access_count();
        // A burst of stats within 500 ms hits the cache.
        for _ in 0..5 {
            svc.get(&mut ctx, "/f").unwrap();
        }
        assert_eq!(c.access_count(), before);
        assert!(svc.stats().cache_hits >= 5);
        // After the expiry the next stat goes to the coordination service again.
        clock.advance(SimDuration::from_secs(1));
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.get(&mut ctx, "/f").unwrap();
        assert_eq!(c.access_count(), before + 1);
    }

    #[test]
    fn exclusive_create_detects_duplicates() {
        let mut svc = MetadataService::new(Some(coord()), false, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/f")).unwrap();
        assert!(matches!(
            svc.create(&mut ctx, md("/f")),
            Err(ScfsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn list_children_merges_pns_and_coordination() {
        let mut svc = MetadataService::new(Some(coord()), true, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/docs/private1")).unwrap();
        svc.create(&mut ctx, md("/shared/public1")).unwrap();
        let docs = svc.list_children(&mut ctx, "/docs").unwrap();
        assert_eq!(docs, vec!["/docs/private1".to_string()]);
        let shared = svc.list_children(&mut ctx, "/shared").unwrap();
        assert_eq!(shared, vec!["/shared/public1".to_string()]);
    }

    #[test]
    fn rename_and_delete() {
        let mut svc = MetadataService::new(Some(coord()), false, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/old/f")).unwrap();
        assert_eq!(svc.rename(&mut ctx, "/old", "/new").unwrap(), 1);
        assert!(svc.get(&mut ctx, "/new/f").is_ok());
        assert!(svc.get(&mut ctx, "/old/f").is_err());
        svc.delete(&mut ctx, "/new/f").unwrap();
        assert!(svc.get(&mut ctx, "/new/f").is_err());
        assert!(matches!(
            svc.rename(&mut ctx, "/nonexistent", "/x"),
            Err(ScfsError::NotFound { .. })
        ));
    }

    #[test]
    fn setfacl_moves_private_file_to_coordination_service() {
        use cloud_store::types::Permission;
        let c = coord();
        let mut svc =
            MetadataService::new(Some(c.clone()), true, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/docs/report")).unwrap();
        assert_eq!(c.access_count(), 0);
        let metadata = svc.get(&mut ctx, "/docs/report").unwrap();
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        let updated = svc.set_acl(&mut ctx, metadata, acl).unwrap();
        assert!(updated.is_shared());
        assert!(
            c.access_count() > 0,
            "sharing must create a coordination tuple"
        );
        assert!(svc.pns().unwrap().get("/docs/report").is_none());
    }

    #[test]
    fn non_sharing_mode_works_without_coordination() {
        let mut svc = MetadataService::new(None, true, "alice".into(), SimDuration::ZERO);
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        svc.create(&mut ctx, md("/f")).unwrap();
        assert!(svc.get(&mut ctx, "/f").is_ok());
        assert!(svc.is_private("/anything", None));
        assert_eq!(svc.private_files().len(), 1);
    }
}
