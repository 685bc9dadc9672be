//! Forwarding decorators over the program's three public seams.
//!
//! Each wraps an `Arc<dyn Trait>`, forwards **every** method of the trait —
//! provided ones included, so a backend that overrides a provided method is
//! still the one that runs — and records a span around the call. They never
//! touch a clock, so a traced pass produces the same virtual timeline as an
//! untraced one. An untraced pass does not install them at all.

use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::providers::ProviderProfile;
use cloud_store::store::{ObjectStore, OpCtx};
use cloud_store::types::{AccountId, Acl, ObjectMeta};
use coord::error::CoordError;
use coord::service::{CoordinationService, Entry, SessionId};
use scfs::backend::{FileStorage, WriteOutcome};
use scfs::chunkstore::{JournalOpts, ReplayReport};
use scfs::durability::DurabilityLevel;
use scfs::error::ScfsError;
use scfs::invariant::InvariantViolation;
use scfs::transfer::TransferOptions;
use scfs::types::ChunkMap;
use scfs_crypto::ContentHash;
use sim_core::background::{BackgroundScheduler, Pending};
use sim_core::schedule::ControllerSlot;
use sim_core::time::{SimDuration, SimInstant};

use crate::trace::{self, Layer};

fn now(ctx: &OpCtx<'_>) -> u64 {
    ctx.clock.now().as_nanos()
}

/// `ObjectStore` decorator: the `cloud` layer.
pub struct TracedStore {
    inner: Arc<dyn ObjectStore>,
}

impl TracedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ObjectStore>) -> Self {
        TracedStore { inner }
    }
}

impl ObjectStore for TracedStore {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn profile(&self) -> &ProviderProfile {
        self.inner.profile()
    }

    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let span = trace::begin(Layer::Cloud, "put", now(ctx));
        let result = self.inner.put(ctx, key, data);
        trace::end(span, now(ctx), data.len() as u64, result.is_ok());
        result
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Vec<u8>, StorageError> {
        let span = trace::begin(Layer::Cloud, "get", now(ctx));
        let result = self.inner.get(ctx, key);
        let bytes = result.as_ref().map_or(0, |d| d.len() as u64);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn head(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<ObjectMeta, StorageError> {
        let span = trace::begin(Layer::Cloud, "head", now(ctx));
        let result = self.inner.head(ctx, key);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), StorageError> {
        let span = trace::begin(Layer::Cloud, "delete", now(ctx));
        let result = self.inner.delete(ctx, key);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, StorageError> {
        let span = trace::begin(Layer::Cloud, "list", now(ctx));
        let result = self.inner.list(ctx, prefix);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), StorageError> {
        let span = trace::begin(Layer::Cloud, "set_acl", now(ctx));
        let result = self.inner.set_acl(ctx, key, acl);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn get_acl(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Acl, StorageError> {
        let span = trace::begin(Layer::Cloud, "get_acl", now(ctx));
        let result = self.inner.get_acl(ctx, key);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }
}

/// `FileStorage` decorator: the `backend` layer.
pub struct TracedStorage {
    inner: Arc<dyn FileStorage>,
}

impl TracedStorage {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn FileStorage>) -> Self {
        TracedStorage { inner }
    }
}

impl FileStorage for TracedStorage {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn write_version(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
        is_new: bool,
        acl: Option<&Acl>,
        opts: &TransferOptions,
    ) -> Result<WriteOutcome, ScfsError> {
        let span = trace::begin(Layer::Backend, "write_version", now(ctx));
        let result = self
            .inner
            .write_version(ctx, id, data, map, prev, is_new, acl, opts);
        let bytes = result.as_ref().map_or(0, |o| o.bytes_uploaded);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn read_manifest(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<ChunkMap, ScfsError> {
        let span = trace::begin(Layer::Backend, "read_manifest", now(ctx));
        let result = self.inner.read_manifest(ctx, id, hash);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn read_chunk(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, ScfsError> {
        let span = trace::begin(Layer::Backend, "read_chunk", now(ctx));
        let result = self.inner.read_chunk(ctx, id, hash);
        let bytes = result.as_ref().map_or(0, |d| d.len() as u64);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn begin_write_version(
        &self,
        sched: &mut BackgroundScheduler,
        at: SimInstant,
        account: AccountId,
        id: &str,
        data: &[u8],
        map: &ChunkMap,
        prev: Option<&ChunkMap>,
        is_new: bool,
        acl: Option<&Acl>,
        opts: &TransferOptions,
    ) -> Pending<Result<WriteOutcome, ScfsError>> {
        let span = trace::begin(Layer::Backend, "begin_write_version", at.as_nanos());
        let token = self
            .inner
            .begin_write_version(sched, at, account, id, data, map, prev, is_new, acl, opts);
        let bytes = token.value().as_ref().map_or(0, |o| o.bytes_uploaded);
        trace::end_interval(
            span,
            Some(token.started_at().as_nanos()),
            token.ready_at().as_nanos(),
            bytes,
            token.value().is_ok(),
        );
        token
    }

    fn begin_read_chunks(
        &self,
        sched: &mut BackgroundScheduler,
        at: SimInstant,
        account: AccountId,
        id: &str,
        map: &ChunkMap,
        indices: Vec<usize>,
        opts: &TransferOptions,
    ) -> Pending<Result<Vec<Vec<u8>>, ScfsError>> {
        let span = trace::begin(Layer::Backend, "begin_read_chunks", at.as_nanos());
        let token = self
            .inner
            .begin_read_chunks(sched, at, account, id, map, indices, opts);
        let bytes = token
            .value()
            .as_ref()
            .map_or(0, |chunks| chunks.iter().map(|c| c.len() as u64).sum());
        trace::end_interval(
            span,
            Some(token.started_at().as_nanos()),
            token.ready_at().as_nanos(),
            bytes,
            token.value().is_ok(),
        );
        token
    }

    fn read_version(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        hash: &ContentHash,
        opts: &TransferOptions,
    ) -> Result<Vec<u8>, ScfsError> {
        let span = trace::begin(Layer::Backend, "read_version", now(ctx));
        let result = self.inner.read_version(ctx, id, hash, opts);
        let bytes = result.as_ref().map_or(0, |d| d.len() as u64);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn copy_version(
        &self,
        ctx: &mut OpCtx<'_>,
        src_id: &str,
        dst_id: &str,
        root: &ContentHash,
        acl: Option<&Acl>,
    ) -> Result<Option<WriteOutcome>, ScfsError> {
        let span = trace::begin(Layer::Backend, "copy_version", now(ctx));
        let result = self.inner.copy_version(ctx, src_id, dst_id, root, acl);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn cloud_durability(&self) -> DurabilityLevel {
        self.inner.cloud_durability()
    }

    fn delete_old_versions(
        &self,
        ctx: &mut OpCtx<'_>,
        id: &str,
        keep: usize,
    ) -> Result<usize, ScfsError> {
        let span = trace::begin(Layer::Backend, "delete_old_versions", now(ctx));
        let result = self.inner.delete_old_versions(ctx, id, keep);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn delete_all(&self, ctx: &mut OpCtx<'_>, id: &str) -> Result<(), ScfsError> {
        let span = trace::begin(Layer::Backend, "delete_all", now(ctx));
        let result = self.inner.delete_all(ctx, id);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn replay_release_journal(
        &self,
        ctx: &mut OpCtx<'_>,
        opts: &JournalOpts,
    ) -> Result<ReplayReport, ScfsError> {
        let span = trace::begin(Layer::Backend, "replay_release_journal", now(ctx));
        let result = self.inner.replay_release_journal(ctx, opts);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn pending_releases(&self) -> usize {
        self.inner.pending_releases()
    }

    fn install_schedule_controller(&self, slot: ControllerSlot) {
        self.inner.install_schedule_controller(slot);
    }

    fn check_invariants(&self, out: &mut Vec<InvariantViolation>) {
        self.inner.check_invariants(out);
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, id: &str, acl: &Acl) -> Result<(), ScfsError> {
        let span = trace::begin(Layer::Backend, "set_acl", now(ctx));
        let result = self.inner.set_acl(ctx, id, acl);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }
}

/// `CoordinationService` decorator: the `coord` layer.
pub struct TracedCoord {
    inner: Arc<dyn CoordinationService>,
}

impl TracedCoord {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn CoordinationService>) -> Self {
        TracedCoord { inner }
    }
}

impl CoordinationService for TracedCoord {
    fn put(&self, ctx: &mut OpCtx<'_>, key: &str, value: Vec<u8>) -> Result<u64, CoordError> {
        let span = trace::begin(Layer::Coord, "put", now(ctx));
        let bytes = value.len() as u64;
        let result = self.inner.put(ctx, key, value);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn cas(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        expected: Option<u64>,
        value: Vec<u8>,
    ) -> Result<u64, CoordError> {
        let span = trace::begin(Layer::Coord, "cas", now(ctx));
        let bytes = value.len() as u64;
        let result = self.inner.cas(ctx, key, expected, value);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn create_ephemeral(
        &self,
        ctx: &mut OpCtx<'_>,
        key: &str,
        value: Vec<u8>,
        session: &SessionId,
        lease: SimDuration,
    ) -> Result<(), CoordError> {
        let span = trace::begin(Layer::Coord, "create_ephemeral", now(ctx));
        let bytes = value.len() as u64;
        let result = self.inner.create_ephemeral(ctx, key, value, session, lease);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn get(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<Entry, CoordError> {
        let span = trace::begin(Layer::Coord, "get", now(ctx));
        let result = self.inner.get(ctx, key);
        let bytes = result.as_ref().map_or(0, |e| e.value.len() as u64);
        trace::end(span, now(ctx), bytes, result.is_ok());
        result
    }

    fn delete(&self, ctx: &mut OpCtx<'_>, key: &str) -> Result<(), CoordError> {
        let span = trace::begin(Layer::Coord, "delete", now(ctx));
        let result = self.inner.delete(ctx, key);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn list(&self, ctx: &mut OpCtx<'_>, prefix: &str) -> Result<Vec<String>, CoordError> {
        let span = trace::begin(Layer::Coord, "list", now(ctx));
        let result = self.inner.list(ctx, prefix);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn set_acl(&self, ctx: &mut OpCtx<'_>, key: &str, acl: Acl) -> Result<(), CoordError> {
        let span = trace::begin(Layer::Coord, "set_acl", now(ctx));
        let result = self.inner.set_acl(ctx, key, acl);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn rename_prefix(
        &self,
        ctx: &mut OpCtx<'_>,
        old_prefix: &str,
        new_prefix: &str,
    ) -> Result<usize, CoordError> {
        let span = trace::begin(Layer::Coord, "rename_prefix", now(ctx));
        let result = self.inner.rename_prefix(ctx, old_prefix, new_prefix);
        trace::end(span, now(ctx), 0, result.is_ok());
        result
    }

    fn access_count(&self) -> u64 {
        self.inner.access_count()
    }

    fn entry_count(&self) -> usize {
        self.inner.entry_count()
    }
}

/// Names of the coordination calls that only read.
pub const COORD_READS: [&str; 2] = ["get", "list"];
/// Names of the coordination calls that take or release a lock (locks are
/// ephemeral entries; `delete` also serves GC tombstones, which is rare).
pub const COORD_LOCK_OPS: [&str; 2] = ["create_ephemeral", "delete"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    use cloud_store::sim_cloud::SimulatedCloud;
    use coord::replication::ReplicatedCoordinator;
    use scfs::backend::SingleCloudStorage;
    use sim_core::time::Clock;

    /// Counts calls per `FileStorage` method. Provided methods are
    /// overridden, so a decorator that fell back to a default (which would
    /// fan out into *other* methods) shows up as a wrong count.
    #[derive(Default)]
    struct CountingStorage {
        calls: Mutex<BTreeMap<&'static str, u64>>,
    }

    impl CountingStorage {
        fn hit(&self, name: &'static str) {
            *self
                .calls
                .lock()
                .expect("test mutex")
                .entry(name)
                .or_default() += 1;
        }

        fn outcome() -> WriteOutcome {
            WriteOutcome {
                root_hash: [0; 32],
                chunks_uploaded: 0,
                bytes_uploaded: 0,
                waves: 0,
                dedup_cross_file: 0,
            }
        }
    }

    impl FileStorage for CountingStorage {
        fn label(&self) -> &'static str {
            self.hit("label");
            "count"
        }
        fn write_version(
            &self,
            _: &mut OpCtx<'_>,
            _: &str,
            _: &[u8],
            _: &ChunkMap,
            _: Option<&ChunkMap>,
            _: bool,
            _: Option<&Acl>,
            _: &TransferOptions,
        ) -> Result<WriteOutcome, ScfsError> {
            self.hit("write_version");
            Ok(Self::outcome())
        }
        fn read_manifest(
            &self,
            _: &mut OpCtx<'_>,
            _: &str,
            _: &ContentHash,
        ) -> Result<ChunkMap, ScfsError> {
            self.hit("read_manifest");
            Ok(ChunkMap::empty(1024))
        }
        fn read_chunk(
            &self,
            _: &mut OpCtx<'_>,
            _: &str,
            _: &ContentHash,
        ) -> Result<Vec<u8>, ScfsError> {
            self.hit("read_chunk");
            Ok(Vec::new())
        }
        fn begin_write_version(
            &self,
            _: &mut BackgroundScheduler,
            at: SimInstant,
            _: AccountId,
            _: &str,
            _: &[u8],
            _: &ChunkMap,
            _: Option<&ChunkMap>,
            _: bool,
            _: Option<&Acl>,
            _: &TransferOptions,
        ) -> Pending<Result<WriteOutcome, ScfsError>> {
            self.hit("begin_write_version");
            Pending::immediate(Ok(Self::outcome()), at)
        }
        fn begin_read_chunks(
            &self,
            _: &mut BackgroundScheduler,
            at: SimInstant,
            _: AccountId,
            _: &str,
            _: &ChunkMap,
            _: Vec<usize>,
            _: &TransferOptions,
        ) -> Pending<Result<Vec<Vec<u8>>, ScfsError>> {
            self.hit("begin_read_chunks");
            Pending::immediate(Ok(Vec::new()), at)
        }
        fn read_version(
            &self,
            _: &mut OpCtx<'_>,
            _: &str,
            _: &ContentHash,
            _: &TransferOptions,
        ) -> Result<Vec<u8>, ScfsError> {
            self.hit("read_version");
            Ok(Vec::new())
        }
        fn copy_version(
            &self,
            _: &mut OpCtx<'_>,
            _: &str,
            _: &str,
            _: &ContentHash,
            _: Option<&Acl>,
        ) -> Result<Option<WriteOutcome>, ScfsError> {
            self.hit("copy_version");
            Ok(None)
        }
        fn cloud_durability(&self) -> DurabilityLevel {
            self.hit("cloud_durability");
            DurabilityLevel::SingleCloud
        }
        fn delete_old_versions(
            &self,
            _: &mut OpCtx<'_>,
            _: &str,
            _: usize,
        ) -> Result<usize, ScfsError> {
            self.hit("delete_old_versions");
            Ok(0)
        }
        fn delete_all(&self, _: &mut OpCtx<'_>, _: &str) -> Result<(), ScfsError> {
            self.hit("delete_all");
            Ok(())
        }
        fn replay_release_journal(
            &self,
            _: &mut OpCtx<'_>,
            _: &JournalOpts,
        ) -> Result<ReplayReport, ScfsError> {
            self.hit("replay_release_journal");
            Ok(ReplayReport::default())
        }
        fn pending_releases(&self) -> usize {
            self.hit("pending_releases");
            0
        }
        fn install_schedule_controller(&self, _: ControllerSlot) {
            self.hit("install_schedule_controller");
        }
        fn check_invariants(&self, _: &mut Vec<InvariantViolation>) {
            self.hit("check_invariants");
        }
        fn set_acl(&self, _: &mut OpCtx<'_>, _: &str, _: &Acl) -> Result<(), ScfsError> {
            self.hit("set_acl");
            Ok(())
        }
    }

    /// Calls every `FileStorage` method once.
    fn call_every_method(storage: &dyn FileStorage) {
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "alice".into());
        let map = ChunkMap::empty(1024);
        let opts = TransferOptions::default();
        let hash = [0u8; 32];
        let mut sched = BackgroundScheduler::new();
        storage.label();
        storage
            .write_version(&mut ctx, "f", b"", &map, None, true, None, &opts)
            .unwrap();
        storage.read_manifest(&mut ctx, "f", &hash).unwrap();
        storage.read_chunk(&mut ctx, "f", &hash).unwrap();
        storage
            .begin_write_version(
                &mut sched,
                SimInstant::EPOCH,
                "alice".into(),
                "f",
                b"",
                &map,
                None,
                true,
                None,
                &opts,
            )
            .into_inner()
            .unwrap();
        storage
            .begin_read_chunks(
                &mut sched,
                SimInstant::EPOCH,
                "alice".into(),
                "f",
                &map,
                Vec::new(),
                &opts,
            )
            .into_inner()
            .unwrap();
        storage.read_version(&mut ctx, "f", &hash, &opts).unwrap();
        storage
            .copy_version(&mut ctx, "f", "g", &hash, None)
            .unwrap();
        storage.cloud_durability();
        storage.delete_old_versions(&mut ctx, "f", 1).unwrap();
        storage.delete_all(&mut ctx, "f").unwrap();
        storage
            .replay_release_journal(&mut ctx, &JournalOpts::default())
            .unwrap();
        storage.pending_releases();
        storage.install_schedule_controller(ControllerSlot::inactive());
        storage.check_invariants(&mut Vec::new());
        storage.set_acl(&mut ctx, "f", &Acl::private()).unwrap();
    }

    #[test]
    fn storage_decorator_forwards_every_method_once() {
        let direct = Arc::new(CountingStorage::default());
        call_every_method(direct.as_ref());
        let wrapped_inner = Arc::new(CountingStorage::default());
        let wrapped = TracedStorage::new(wrapped_inner.clone());
        call_every_method(&wrapped);
        let direct_calls = direct.calls.lock().unwrap().clone();
        let wrapped_calls = wrapped_inner.calls.lock().unwrap().clone();
        assert_eq!(direct_calls.len(), 16, "every trait method is exercised");
        assert!(direct_calls.values().all(|&c| c == 1));
        assert_eq!(direct_calls, wrapped_calls);
    }

    #[test]
    fn decorated_stack_moves_the_same_virtual_clock_and_requests() {
        // The same file written and read back through a bare stack and a
        // fully decorated one: same bytes, same virtual instant, same
        // request counts at the cloud and the coordinator.
        let run = |traced: bool| {
            let cloud = Arc::new(SimulatedCloud::new(ProviderProfile::amazon_s3(), 9));
            let store: Arc<dyn ObjectStore> = if traced {
                Arc::new(TracedStore::new(cloud.clone()))
            } else {
                cloud.clone()
            };
            let mut storage: Arc<dyn FileStorage> = Arc::new(SingleCloudStorage::new(store));
            let mut coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
            if traced {
                storage = Arc::new(TracedStorage::new(storage));
                coord = Arc::new(TracedCoord::new(coord));
            }
            let mut fs = scfs::agent::ScfsAgent::mount(
                "alice".into(),
                scfs::config::ScfsConfig::paper_default(scfs::config::Mode::Blocking),
                storage,
                Some(coord.clone()),
                4,
            )
            .unwrap();
            use scfs::fs::FileSystem;
            fs.write_file("/d/f", &vec![7u8; 70_000]).unwrap();
            let back = fs.read_file("/d/f").unwrap();
            (
                back,
                fs.now(),
                cloud.metrics().snapshot(),
                coord.access_count(),
            )
        };
        trace::install(1);
        trace::set_active(true);
        let traced = run(true);
        let rec = trace::take().unwrap();
        let bare = run(false);
        assert_eq!(traced, bare);
        // Driver-less run: spans outside any FileSystem bracket are their
        // own roots, but every seam was seen.
        assert!(rec.layers[Layer::Cloud as usize].calls > 0);
        assert!(rec.layers[Layer::Backend as usize].calls > 0);
        assert!(rec.layers[Layer::Coord as usize].calls > 0);
        assert_eq!(
            rec.layers[Layer::Cloud as usize].calls,
            bare.2.total_ops(),
            "one cloud span per cloud request"
        );
    }
}
