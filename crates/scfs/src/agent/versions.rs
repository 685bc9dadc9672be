//! The version records: one per object, naming the newest version of it
//! this agent opened or anchored — its root and its chunks. The chunk cache
//! is keyed by content, so nothing in it says which version an entry
//! belongs to; these records do. When a record moves to a newer version, or
//! goes with an unlink, what only the old version named leaves the cache
//! ([`ScfsAgent::move_record`]): a superseded version is never served again,
//! so its chunks would only push live ones out. The hash checkpoints this
//! agent's cuts kept of a chunk live as long as a record names the chunk.

use std::collections::BTreeMap;

use scfs_crypto::{ContentHash, Sha256};

use super::ScfsAgent;
use crate::types::ChunkMap;

/// The newest version of one object this agent opened or anchored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct VersionRecord {
    /// The version's number (`FileMetadata::version_count`).
    count: u64,
    /// The root hash: the manifest's cache key, when the manifest is an
    /// object rather than part of the tuple.
    root: ContentHash,
    /// The distinct chunks, in file order.
    chunks: Vec<ContentHash>,
}

impl VersionRecord {
    /// The record of version `count`, stored under `root` and laid out by
    /// `map`.
    pub(super) fn new(count: u64, root: ContentHash, map: &ChunkMap) -> Self {
        VersionRecord {
            count,
            root,
            chunks: map.distinct_chunks(),
        }
    }

    /// Every hash the record names: its chunks and its root.
    fn names(&self) -> impl Iterator<Item = ContentHash> + '_ {
        self.chunks.iter().copied().chain([self.root])
    }
}

/// What a moved or removed record named that no record names any more.
#[derive(Debug, Default, PartialEq, Eq)]
struct Superseded {
    /// Chunks of the old version only.
    chunks: Vec<ContentHash>,
    /// The old version's root, when no record names it.
    root: Option<ContentHash>,
}

/// The agent's version records, and how many records name each hash.
#[derive(Debug, Default)]
pub(super) struct Versions {
    records: BTreeMap<String, VersionRecord>,
    /// Records naming each chunk or root: a chunk whose content another
    /// object's live version also has (a copy) stays while one does.
    named: BTreeMap<ContentHash, u32>,
    /// The hash checkpoints of named chunks that a cut here hashed
    /// ([`crate::types::ChunkSource::checkpoints`]).
    checkpoints: BTreeMap<ContentHash, Vec<Sha256>>,
}

impl Versions {
    /// Whether the anchor naming version `count` under `root` is newer than
    /// what the record of `id` holds (or `id` has no record).
    pub(super) fn is_behind(&self, id: &str, count: u64, root: &ContentHash) -> bool {
        self.records
            .get(id)
            .is_none_or(|r| r.root != *root && r.count <= count)
    }

    /// Replaces the record of `id` with `record` (`None` removes it) and
    /// returns what only the old record named.
    fn replace(&mut self, id: &str, record: Option<VersionRecord>) -> Superseded {
        let old = match record {
            Some(record) => {
                // Counted before the old record is released, so what both
                // versions name never reaches zero.
                for hash in record.names() {
                    *self.named.entry(hash).or_default() += 1;
                }
                self.records.insert(id.to_string(), record)
            }
            None => self.records.remove(id),
        };
        let Some(old) = old else {
            return Superseded::default();
        };
        let chunks = old.chunks.into_iter();
        Superseded {
            chunks: chunks.filter(|&hash| self.release(hash)).collect(),
            root: self.release(old.root).then_some(old.root),
        }
    }

    /// Drops one record's claim on `hash`; whether it was the last.
    fn release(&mut self, hash: ContentHash) -> bool {
        let Some(count) = self.named.get_mut(&hash) else {
            return false;
        };
        *count -= 1;
        if *count > 0 {
            return false;
        }
        self.named.remove(&hash);
        self.checkpoints.remove(&hash);
        true
    }

    /// The checkpoints kept of the chunk `hash`, or none.
    pub(super) fn checkpoints(&self, hash: &ContentHash) -> &[Sha256] {
        self.checkpoints.get(hash).map_or(&[], Vec::as_slice)
    }

    /// Keeps the checkpoints a handle's cuts took of the chunks a record
    /// now names; the rest go.
    pub(super) fn adopt(&mut self, checkpoints: BTreeMap<ContentHash, Vec<Sha256>>) {
        let named = checkpoints
            .into_iter()
            .filter(|(hash, _)| self.named.contains_key(hash));
        self.checkpoints.extend(named);
    }
}

impl ScfsAgent {
    /// Moves the record of `id` to `record` (`None`: the object is gone) and
    /// removes from both cache tiers what only the old version named — its
    /// chunks and, when it was an object, its manifest — except a chunk an
    /// open handle's loaded or staged map still names: the handle may fault
    /// it in, and a staged chunk is the local-disk copy `fsync` promised.
    pub(super) fn move_record(&mut self, id: &str, record: Option<VersionRecord>) {
        let superseded = self.versions.replace(id, record);
        for hash in &superseded.chunks {
            if !self.open_files.values().any(|file| file.names(hash)) {
                self.cache.remove(&Self::chunk_cache_key(hash));
            }
        }
        if let Some(root) = superseded.root {
            self.cache.remove(&Self::manifest_cache_key(&root));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{edited, four_chunks, test_agent, wan_agent};
    use super::*;
    use crate::backend::{FileStorage, SingleCloudStorage};
    use crate::config::{Mode, ScfsConfig};
    use crate::fs::FileSystem;
    use crate::types::{CdcParams, CutRule, OpenFlags};
    use cloud_store::sim_cloud::SimulatedCloud;
    use coord::replication::ReplicatedCoordinator;
    use coord::service::CoordinationService;
    use scfs_crypto::sha256;
    use sim_core::fault::FaultPlan;
    use sim_core::rng::DetRng;
    use sim_core::time::SimDuration;
    use sim_core::units::Bytes;
    use std::sync::Arc;

    fn map(chunks: &[&[u8]]) -> ChunkMap {
        let data: Vec<u8> = chunks.concat();
        ChunkMap::build(&data, chunks[0].len())
    }

    fn record(count: u64, chunks: &[&[u8]]) -> VersionRecord {
        let map = map(chunks);
        VersionRecord::new(count, map.root_hash(), &map)
    }

    #[test]
    fn a_newer_version_supersedes_only_what_it_stopped_naming() {
        let mut versions = Versions::default();
        let v1 = record(1, &[b"aaaa", b"bbbb", b"cccc"]);
        let v2 = record(2, &[b"aaaa", b"dddd", b"cccc"]);
        assert_eq!(
            versions.replace("f", Some(v1.clone())),
            Superseded::default()
        );
        assert!(versions.is_behind("f", 2, &v2.root));
        assert!(!versions.is_behind("f", 1, &v1.root), "same version");
        let superseded = versions.replace("f", Some(v2.clone()));
        assert_eq!(superseded.chunks, vec![sha256(b"bbbb")]);
        assert_eq!(superseded.root, Some(v1.root));
        assert!(!versions.is_behind("f", 1, &v1.root), "an older anchor");
        let gone = versions.replace("f", None);
        assert_eq!(gone.chunks.len(), 3);
        assert_eq!(gone.root, Some(v2.root));
        assert!(versions.named.is_empty());
    }

    #[test]
    fn what_another_record_names_is_never_superseded() {
        let mut versions = Versions::default();
        let shared = record(1, &[b"aaaa", b"bbbb"]);
        versions.replace("src", Some(shared.clone()));
        versions.replace("dst", Some(shared.clone()));
        let superseded = versions.replace("src", Some(record(2, &[b"cccc", b"bbbb"])));
        assert_eq!(
            superseded,
            Superseded::default(),
            "dst names a and the root"
        );
        let superseded = versions.replace("dst", None);
        assert_eq!(superseded.chunks, vec![sha256(b"aaaa")]);
        assert_eq!(superseded.root, Some(shared.root));
        assert_ne!(versions.records["src"].root, shared.root);
    }

    /// Whether the memory and the disk tier of `fs` hold the chunk `hash`.
    fn cached(fs: &ScfsAgent, hash: &ContentHash) -> (bool, bool) {
        let key = ScfsAgent::chunk_cache_key(hash);
        let (memory, disk) = (fs.cache.memory(), fs.cache.disk());
        (memory.contains(&key), disk.contains(&key))
    }

    /// Mounts of one account over one instantaneous cloud and coordination
    /// node, each its own process: its own backend instance and cache.
    struct Account {
        cloud: Arc<SimulatedCloud>,
        coord: Arc<dyn CoordinationService>,
    }

    impl Account {
        fn new() -> Self {
            Account {
                cloud: Arc::new(SimulatedCloud::test("s3")),
                coord: Arc::new(ReplicatedCoordinator::test()),
            }
        }

        fn mount(&self, seed: u64) -> ScfsAgent {
            let storage: Arc<dyn FileStorage> =
                Arc::new(SingleCloudStorage::new(self.cloud.clone()));
            let (config, coord) = (ScfsConfig::test(Mode::Blocking), Some(self.coord.clone()));
            ScfsAgent::mount("alice".into(), config, storage, coord, seed).unwrap()
        }

        fn gets(&self) -> u64 {
            self.cloud.metrics().snapshot().gets
        }
    }

    #[test]
    fn a_reopen_of_a_newer_version_drops_the_chunk_it_replaced() {
        let account = Account::new();
        let (mut a, mut b) = (account.mount(1), account.mount(2));
        let v1 = four_chunks();
        a.write_file("/f", &v1).unwrap();
        b.sleep(SimDuration::from_secs(60));
        assert_eq!(b.read_file("/f").unwrap(), v1, "b caches all of v1");
        let old = b.config().chunk_map(&v1);
        assert!(old.chunks().iter().all(|h| cached(&b, h).0));

        let h = a.open("/f", OpenFlags::read_write()).unwrap();
        let (v2, offset) = edited(v1, 2);
        a.write(h, offset, b"edit").unwrap();
        a.close(h).unwrap();

        b.sleep(SimDuration::from_secs(60));
        let h = b.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(
            cached(&b, &old.chunks()[2]),
            (false, false),
            "v1-only chunk"
        );
        let invalidated = b.cache_stats().memory.invalidations;
        assert_eq!(invalidated, 1, "one entry left, and not by eviction");
        assert_eq!(b.cache_stats().memory.evictions, 0);
        let gets = account.gets();
        // In an order no read continues the last: no prefetch of chunk 2.
        for i in [1, 3, 0] {
            let read = b.read(h, (i as u64) << 20, 1 << 20).unwrap();
            assert_eq!(read, v2[i << 20..(i + 1) << 20]);
        }
        assert_eq!(
            account.gets(),
            gets,
            "the unchanged chunks are still cached"
        );
        assert_eq!(b.read(h, 2 << 20, 1 << 20).unwrap(), v2[2 << 20..3 << 20]);
        assert_eq!(account.gets(), gets + 1, "only the new chunk comes in");
        b.close(h).unwrap();
    }

    #[test]
    fn repeated_edits_leave_one_version_in_the_cache() {
        let mut fs = test_agent(Mode::Blocking);
        let data = four_chunks();
        fs.write_file("/f", &data).unwrap();
        for i in 0..32u32 {
            let h = fs.open("/f", OpenFlags::read_write()).unwrap();
            let offset = (u64::from(i % 4) << 20) + 10;
            fs.write(h, offset, &i.to_le_bytes()).unwrap();
            fs.close(h).unwrap();
        }
        // Four 1 MiB chunks, and a manifest that rides in the tuple.
        let version = Bytes::new(data.len() as u64);
        assert_eq!(fs.cache.memory().used_bytes(), version);
        assert_eq!(fs.cache.disk().used_bytes(), version);
        let stats = fs.cache_stats();
        assert_eq!(
            (stats.memory.invalidations, stats.disk.invalidations),
            (32, 32)
        );
        assert_eq!(stats.memory.evictions + stats.disk.evictions, 0);
    }

    #[test]
    fn a_chunk_a_copy_shares_survives_the_sources_next_version() {
        let mut fs = test_agent(Mode::Blocking);
        let v1 = four_chunks();
        fs.write_file("/src", &v1).unwrap();
        fs.copy_file("/src", "/dst").unwrap();
        let shared = fs.config().chunk_map(&v1).chunks()[1];
        let h = fs.open("/src", OpenFlags::read_write()).unwrap();
        let (v2, offset) = edited(v1.clone(), 1);
        fs.write(h, offset, b"edit").unwrap();
        fs.close(h).unwrap();
        assert_eq!(cached(&fs, &shared), (true, true), "/dst still names it");
        assert_eq!(fs.read_file("/src").unwrap(), v2);
        assert_eq!(fs.read_file("/dst").unwrap(), v1);
        // Once /dst is gone nothing names it.
        fs.unlink("/dst").unwrap();
        assert_eq!(cached(&fs, &shared), (false, false));
        let live = fs.config().chunk_map(&v2);
        assert!(live.chunks().iter().all(|h| cached(&fs, h) == (true, true)));
    }

    #[test]
    fn a_handle_open_on_the_old_version_keeps_its_chunks() {
        let account = Account::new();
        let (mut a, mut b) = (account.mount(1), account.mount(2));
        let v1 = four_chunks();
        a.write_file("/f", &v1).unwrap();
        b.sleep(SimDuration::from_secs(60));
        let old = b.open("/f", OpenFlags::read_only()).unwrap();
        assert_eq!(b.read(old, 0, v1.len()).unwrap(), v1);

        let h = a.open("/f", OpenFlags::read_write()).unwrap();
        let (v2, offset) = edited(v1.clone(), 2);
        a.write(h, offset, b"edit").unwrap();
        a.close(h).unwrap();

        b.sleep(SimDuration::from_secs(60));
        let new = b.open("/f", OpenFlags::read_only()).unwrap();
        let replaced = b.config().chunk_map(&v1).chunks()[2];
        assert_eq!(
            cached(&b, &replaced),
            (true, false),
            "the v1 handle names it"
        );
        let gets = account.gets();
        assert_eq!(b.read(new, 0, v2.len()).unwrap(), v2);
        assert_eq!(account.gets(), gets + 1, "one new chunk");
        assert_eq!(b.read(old, 2 << 20, 1 << 20).unwrap(), v1[2 << 20..3 << 20]);
        b.close(old).unwrap();
        b.close(new).unwrap();
    }

    #[test]
    fn a_failed_commit_leaves_the_record_and_the_cache() {
        let cloud = Arc::new(SimulatedCloud::test("s3"));
        let storage = Arc::new(SingleCloudStorage::new(cloud.clone()));
        let coord: Arc<dyn CoordinationService> = Arc::new(ReplicatedCoordinator::test());
        let config = ScfsConfig::test(Mode::Blocking);
        let mut fs = ScfsAgent::mount("alice".into(), config, storage, Some(coord), 1).unwrap();
        let v1 = four_chunks();
        fs.write_file("/f", &v1).unwrap();
        let map = fs.config().chunk_map(&v1);
        let id = fs.stat("/f").unwrap().storage_id;
        let record = fs.versions.records.get(&id).cloned();
        assert_eq!(record.as_ref().map(|r| r.root), Some(map.root_hash()));

        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        let (_, offset) = edited(v1, 2);
        fs.write(h, offset, b"edit").unwrap();
        let now = fs.now();
        let outage = FaultPlan::outage(now, now + SimDuration::from_secs(3600));
        cloud.set_fault_plan(outage, 1);
        assert!(fs.close(h).is_err(), "the cloud is down");
        assert_eq!(fs.versions.records.get(&id).cloned(), record);
        for hash in map.chunks() {
            assert_eq!(cached(&fs, hash), (true, true));
        }
        assert_eq!(fs.cache_stats().memory.invalidations, 0);
    }

    #[test]
    fn every_chunk_of_the_newer_version_is_on_disk_before_its_upload_lands() {
        let mut fs = wan_agent(ScfsConfig::test(Mode::NonBlocking));
        let v1 = four_chunks();
        fs.write_file("/f", &v1).unwrap();
        let h = fs.open("/f", OpenFlags::read_write()).unwrap();
        let (v2, offset) = edited(v1.clone(), 1);
        fs.write(h, offset, b"edit").unwrap();
        fs.close(h).unwrap();
        let token = fs
            .upload_token("/f")
            .expect("the second upload is in flight");
        assert!(fs.now() < token.ready_at());
        let map = fs.config().chunk_map(&v2);
        for hash in map.chunks() {
            let key = ScfsAgent::chunk_cache_key(hash);
            assert!(fs.cache.probe_disk(&key));
        }
        let replaced = fs.config().chunk_map(&v1).chunks()[1];
        assert_eq!(cached(&fs, &replaced), (false, false));
    }

    /// 200 edits of one file — overwrites, inserts, deletes and appends,
    /// some staged by `fsync` and written again — each leave checkpoints
    /// only of chunks a record names.
    #[test]
    fn the_checkpoints_are_only_of_named_chunks() {
        let mut fs = test_agent(Mode::Blocking);
        fs.config.chunking = CutRule::Cdc(CdcParams::with_avg(128 << 10));
        let mut rng = DetRng::new(200);
        let mut model = rng.bytes(1 << 20);
        fs.write_file("/f", &model).unwrap();
        for round in 0..200u64 {
            let h = fs.open("/f", OpenFlags::read_write()).unwrap();
            let at = rng.range_u64(0, model.len() as u64) as usize;
            match round % 4 {
                0 => {
                    let end = model.len().min(at + 4096);
                    model[at..end].copy_from_slice(&rng.bytes(end - at));
                }
                1 => drop(model.splice(at..at, rng.bytes(1024))),
                2 => drop(model.drain(at..model.len().min(at + 1024))),
                _ => model.extend_from_slice(&rng.bytes(8192)),
            }
            let at = at.min(model.len());
            fs.write(h, at as u64, &model[at..]).unwrap();
            fs.truncate(h, model.len() as u64).unwrap();
            if round % 10 == 0 {
                // Staged, then written over before the commit: what the
                // staged cut hashed there is named by no record.
                fs.fsync(h).unwrap();
                let end = model.len().min(at + 4096);
                model[at..end].copy_from_slice(&rng.bytes(end - at));
                fs.write(h, at as u64, &model[at..end]).unwrap();
            }
            fs.close(h).unwrap();
            let Versions {
                named, checkpoints, ..
            } = &fs.versions;
            assert!(checkpoints.keys().all(|hash| named.contains_key(hash)));
        }
        assert!(fs.versions.checkpoints.len() > 2);
        assert_eq!(fs.read_file("/f").unwrap(), model);
    }

    #[test]
    fn unlink_drops_the_files_chunks_from_both_tiers() {
        let mut fs = test_agent(Mode::Blocking);
        let data = four_chunks();
        fs.write_file("/f", &data).unwrap();
        fs.write_file("/g", b"another file").unwrap();
        let map = fs.config().chunk_map(&data);
        assert!(map.chunks().iter().all(|h| cached(&fs, h) == (true, true)));
        fs.unlink("/f").unwrap();
        assert!(map
            .chunks()
            .iter()
            .all(|h| cached(&fs, h) == (false, false)));
        let stats = fs.cache_stats();
        assert_eq!(
            (stats.memory.invalidations, stats.disk.invalidations),
            (4, 4)
        );
        assert_eq!(fs.read_file("/g").unwrap(), b"another file");
    }
}
