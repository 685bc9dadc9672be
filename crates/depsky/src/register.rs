//! The DepSky write-once blob store over a cloud-of-clouds.
//!
//! [`DepSkyClient`] runs the DepSky-CA write and read protocols (paper §3.2,
//! Figure 6) over the only kind of data unit SCFS stores: an immutable blob
//! named by its content hash. The paper's extension — *read the version with
//! this hash*, so the consistency anchor in the coordination service and not
//! the eventually-consistent clouds decides what a reader observes — is what
//! [`DepSkyClient::read_blob`] does; the hash is in the unit's name.
//!
//! A blob is a unit with a metadata record on every cloud — in SCFS a
//! manifest, one record per file version as in the paper — or a *bare*
//! blob, its blocks and nothing else: an SCFS chunk, whose hash the anchored
//! manifest names ([`DepSkyClient::write_bare_blob`]). A blob is bare only
//! under a placement whose holders follow from the spec alone
//! ([`PlacementPolicy::implied_holders`]: the paper's layout puts slot `i` on
//! the `i`-th fastest cloud); elsewhere the bare calls store and find a unit
//! with a record.
//!
//! A write stores `width` blocks; a read needs `f + 1` of them, so it races
//! the first `f + 1` holders in the policy's order and widens to the rest
//! only on a miss. In the paper's layout ([`DepSkyClient::new`]) the holders
//! are the `n − f` clouds advertising the lowest request latency, and the
//! read races the two fastest of them.
//!
//! This module owns how a blob is spelled in a cloud, both ways: a blob
//! `(base, hash)` is the unit [`DepSkyClient::blob_unit`] names, a unit's
//! objects live under [`KEY_SPACE`], and [`DepSkyClient::blob_of_key`] reads
//! the `(base, hash)` back off any of them.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::store::{ObjectStore, OpCtx};
use cloud_store::types::Acl;
use parking_lot::Mutex;
use placement::policy::combinations;
use placement::{AllClouds, PlacementPolicy, ProviderMatrix};
use scfs_crypto::{
    combine_shares, sha256, split_secret, ChaCha20, ContentHash, ErasureCoder, KeyGenerator, Share,
};
use sim_core::parallel::{join_all, join_nth, run_forked, ForkedRun};
use sim_core::time::SimInstant;
use sim_core::units::Bytes;

use crate::config::DepSkyConfig;
use crate::metadata::{BlockSlot, DataUnitMetadata, VersionInfo};
use crate::wire::{DecodeError, Reader, Writer};

/// Prefix of every key a DepSky client stores in a cloud.
pub const KEY_SPACE: &str = "depsky/";

/// How a client selects clouds: the shared provider matrix (whose health
/// every observed outcome feeds), the policy ranking it, and the write
/// geometry. The paper's fixed layout is one such spec
/// ([`DepSkyClient::new`]).
#[derive(Clone)]
pub struct PlacementSpec {
    /// The provider registry; shared with the harness so reports can read
    /// the same health state the policies act on.
    pub matrix: Arc<ProviderMatrix>,
    /// The policy choosing write targets and read orders.
    pub policy: Arc<dyn PlacementPolicy>,
    /// Number of clouds holding data blocks per version (the paper's
    /// `n − f` under preferred quorums).
    pub width: usize,
    /// Number of block-store acknowledgements a write waits for
    /// (`data_shards ≤ write_wait ≤ width`; `width − write_wait` stragglers
    /// are off the critical path). Reads do not use it: a read races
    /// `data_shards` (`f + 1`) holders.
    pub write_wait: usize,
}

impl std::fmt::Debug for PlacementSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementSpec")
            .field("policy", &self.policy.name())
            .field("width", &self.width)
            .field("write_wait", &self.write_wait)
            .finish()
    }
}

/// One decoded block object fetched from a cloud.
#[derive(Debug, Clone)]
struct BlockPayload {
    slot: u8,
    share_index: u8,
    nonce: [u8; 12],
    /// Length of the plaintext the blob decodes to.
    size: u64,
    share_data: Vec<u8>,
    shard: Vec<u8>,
}

/// The DepSky client: one write-once, content-addressed data unit per blob.
pub struct DepSkyClient {
    clouds: Vec<Arc<dyn ObjectStore>>,
    config: DepSkyConfig,
    coder: ErasureCoder,
    keygen: Mutex<KeyGenerator>,
    /// The record of each unit this client wrote, or read and verified:
    /// manifests, never bare blobs.
    metadata_cache: Mutex<BTreeMap<String, DataUnitMetadata>>,
    /// Which clouds of the pool serve each operation.
    placement: PlacementSpec,
}

impl std::fmt::Debug for DepSkyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepSkyClient")
            .field("clouds", &self.clouds.len())
            .field("config", &self.config)
            .finish()
    }
}

impl DepSkyClient {
    /// Creates a client over exactly the configuration's `n` clouds in the
    /// paper's layout (§3.2, preferred quorums): the `n − f` fastest clouds
    /// hold every version's blocks, and a write waits for all of them.
    ///
    /// "Fastest" is each profile's advertised mean request latency. The pool
    /// is sorted by it, stably, and the [`AllClouds`] spec is built over
    /// that order, so slot `i` lives on the `i`-th fastest cloud and the
    /// cloud left without blocks is the slowest. Every client of a
    /// deployment sorts the same pool the same way, so the holders one
    /// implies are the holders another wrote; equal profiles keep pool
    /// order.
    pub fn new(
        mut clouds: Vec<Arc<dyn ObjectStore>>,
        config: DepSkyConfig,
        seed: u64,
    ) -> Result<Self, StorageError> {
        if clouds.len() != config.total_clouds() {
            return Err(StorageError::invalid(format!(
                "configuration requires {} clouds, got {}",
                config.total_clouds(),
                clouds.len()
            )));
        }
        clouds.sort_by_key(|c| c.profile().latency.request.mean());
        let profiles = clouds.iter().map(|c| c.profile().clone()).collect();
        let spec = PlacementSpec {
            matrix: Arc::new(ProviderMatrix::new(profiles)),
            policy: Arc::new(AllClouds),
            width: config.data_clouds(),
            write_wait: config.data_clouds(),
        };
        Self::with_placement(clouds, config, spec, seed)
    }

    /// Creates a client over a cloud pool that may be larger than the
    /// protocol's `n`: `spec.width` clouds (chosen per write by
    /// `spec.policy`) hold each version's blocks, metadata goes to every
    /// cloud with majority acknowledgement, and a read races the first
    /// `f + 1` holders in the policy's order, widening to the rest on a miss
    /// or failure. The pool keeps the caller's order.
    pub fn with_placement(
        clouds: Vec<Arc<dyn ObjectStore>>,
        config: DepSkyConfig,
        spec: PlacementSpec,
        seed: u64,
    ) -> Result<Self, StorageError> {
        if clouds.len() < config.total_clouds() {
            return Err(StorageError::invalid(format!(
                "placement needs at least {} clouds, got {}",
                config.total_clouds(),
                clouds.len()
            )));
        }
        if spec.matrix.len() != clouds.len() {
            return Err(StorageError::invalid(format!(
                "provider matrix covers {} clouds but the pool has {}",
                spec.matrix.len(),
                clouds.len()
            )));
        }
        let data_shards = config.data_shards();
        if spec.width < data_shards || spec.width > clouds.len() {
            return Err(StorageError::invalid(format!(
                "placement width {} outside [{data_shards}, {}]",
                spec.width,
                clouds.len()
            )));
        }
        if spec.write_wait < data_shards || spec.write_wait > spec.width {
            return Err(StorageError::invalid(format!(
                "write wait {} outside [{data_shards}, {}]",
                spec.write_wait, spec.width
            )));
        }
        let coder = ErasureCoder::new(data_shards, spec.width - data_shards)
            .map_err(|e| StorageError::invalid(e.to_string()))?;
        Ok(DepSkyClient {
            clouds,
            config,
            coder,
            keygen: Mutex::new(KeyGenerator::from_seed(seed)),
            metadata_cache: Mutex::new(BTreeMap::new()),
            placement: spec,
        })
    }

    /// Acknowledgements a metadata write (or read) waits for: a majority of
    /// the pool, so any two metadata quorums intersect (`n − f` on the
    /// paper's four clouds).
    fn metadata_quorum(&self) -> usize {
        self.clouds.len() / 2 + 1
    }

    /// Feeds observed outcomes into the provider matrix's health state.
    fn record_outcomes<T>(&self, start: SimInstant, outcomes: &[CloudRun<T>]) {
        let matrix = &self.placement.matrix;
        for o in outcomes {
            let latency = o.completed_at.duration_since(start);
            matrix.record(o.index, latency, o.value.is_ok());
        }
    }

    fn metadata_key(name: &str) -> String {
        format!("{KEY_SPACE}{name}/metadata")
    }

    fn block_key(name: &str, version: u64, slot: usize) -> String {
        format!("{KEY_SPACE}{name}/v{version}/block{slot}")
    }

    /// Name of the data unit holding the immutable, content-addressed blob
    /// `(base, hash)`: the base joined with the hash in hex. SCFS stores
    /// chunks under one shared base and each object's manifests under the
    /// object's id; `base` must not contain `/`.
    pub fn blob_unit(base: &str, hash: &ContentHash) -> String {
        format!("{base}|{}", scfs_crypto::to_hex(hash))
    }

    /// The `(base, hash)` of the blob a stored cloud key belongs to — the
    /// inverse of [`DepSkyClient::blob_unit`] under either kind of object a
    /// unit has (metadata record, block). `None` for a key that is not one
    /// this client could have written for a blob.
    pub fn blob_of_key(key: &str) -> Option<(&str, ContentHash)> {
        let unit = key.strip_prefix(KEY_SPACE)?.split('/').next()?;
        let (base, hex) = unit.rsplit_once('|')?;
        Some((base, scfs_crypto::hash_from_hex(hex)?))
    }

    /// The units whose record this client caches, in name order: those it
    /// wrote, or read and verified, with [`DepSkyClient::write_blob`] and
    /// [`DepSkyClient::read_blob`] and has not deleted since. A bare blob
    /// has no record, so it is never among them.
    pub fn cached_units(&self) -> Vec<String> {
        self.metadata_cache.lock().keys().cloned().collect()
    }

    fn cached_metadata(&self, name: &str) -> Option<DataUnitMetadata> {
        self.metadata_cache.lock().get(name).cloned()
    }

    /// The unit's metadata from the cache or, failing that, the record the
    /// most clouds of a quorum read returned.
    fn known_metadata(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
    ) -> Result<DataUnitMetadata, StorageError> {
        match self.cached_metadata(name) {
            Some(md) => Ok(md),
            None => Ok(self.read_records(ctx, name)?.swap_remove(0)),
        }
    }

    /// The clouds of `slots` (slot `i` on cloud `slots[i]`) in this pool: a
    /// record may name others.
    fn holders(&self, slots: &[usize]) -> Vec<usize> {
        let holders = slots.iter().copied();
        holders.filter(|&c| c < self.clouds.len()).collect()
    }

    /// The holders of a bare blob's blocks, slot `i` on the `i`-th, when the
    /// placement implies them ([`PlacementPolicy::implied_holders`]).
    fn implied_holders(&self) -> Option<Vec<usize>> {
        let spec = &self.placement;
        spec.policy.implied_holders(&spec.matrix, spec.width)
    }

    /// Encrypts `data` under a fresh key, erasure-codes the ciphertext and
    /// secret-shares the key: one encoded block per slot of the placement's
    /// width, slot order. Refuses content that does not hash to its address.
    fn encode_blocks(&self, hash: &ContentHash, data: &[u8]) -> Result<Vec<Vec<u8>>, StorageError> {
        if &sha256(data) != hash {
            return Err(StorageError::invalid(format!(
                "blob content does not match its address {}",
                scfs_crypto::to_hex(hash)
            )));
        }
        let data_clouds = self.placement.width;
        let data_shards = self.config.data_shards();
        let (key, nonce) = {
            let mut kg = self.keygen.lock();
            (kg.next_key(), kg.next_nonce())
        };
        let ciphertext = ChaCha20::new(&key, &nonce).encrypt(data);
        let shards = self.coder.encode(&ciphertext);
        let shares = {
            let mut kg = self.keygen.lock();
            split_secret(&key, data_shards, data_clouds, move || {
                (kg.next_key()[0]) ^ (kg.next_nonce()[0])
            })
            .map_err(|e| StorageError::invalid(e.to_string()))?
        };
        let size = data.len() as u64;
        let blocks = shards.into_iter().take(data_clouds).zip(shares).enumerate();
        let blocks = blocks.map(|(slot, (shard, share))| {
            encode_block(slot as u8, share.index, &nonce, size, &share.data, &shard)
        });
        Ok(blocks.collect())
    }

    /// PUTs block slot `i` of `version` on cloud `holders[i]`, every slot in
    /// one round from the caller's instant, which does not move.
    fn put_blocks(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        version: u64,
        holders: &[usize],
        blocks: &[Vec<u8>],
    ) -> Vec<CloudRun<()>> {
        let start = ctx.clock.now();
        let outcomes = parallel_access(ctx, &self.clouds, holders, |cloud_index, cloud, c| {
            let slot = slot_on(holders, cloud_index);
            cloud.put(c, &Self::block_key(name, version, slot), &blocks[slot])
        });
        self.record_outcomes(start, &outcomes);
        outcomes
    }

    /// Stores an immutable blob addressed by `base|hash` through the full
    /// DepSky-CA pipeline (encrypt, erasure-code, secret-share) as a unit
    /// with a version record — in SCFS, a manifest: one record per file
    /// version, as in the paper. Writing the same blob twice is idempotent
    /// in content; callers are expected to skip blobs they know are already
    /// stored. A repeated write appends a version record and stores its
    /// blocks under the next `v{n}/`: a reader still holding the earlier
    /// record keeps finding the blocks of the encryption that record
    /// describes.
    ///
    /// Blobs are write-once, so the unit is taken to be new and the
    /// protocol's metadata-read phase is skipped. The per-cloud block PUTs
    /// and the metadata-record PUTs go out in one round, and the call
    /// returns at the later of the two quorum instants. This is the storage
    /// half of SCFS's commit invariant: content-addressed objects are
    /// unordered among themselves, and only the anchor update that publishes
    /// their hash is ordered after all of them — so no reader can look for
    /// this unit before the call has returned, and a failed call leaves at
    /// most a half-written unit that [`DepSkyClient::delete_blob`] reclaims.
    pub fn write_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        data: &[u8],
    ) -> Result<(), StorageError> {
        let payloads = self.encode_blocks(hash, data)?;
        let name = Self::blob_unit(base, hash);
        let mut metadata = self
            .cached_metadata(&name)
            .unwrap_or_else(|| DataUnitMetadata::new(&name));
        let version = metadata.next_version();
        let spec = &self.placement;
        let block_size = payloads.first().map_or(0, |p| p.len() as u64);

        // Store the data blocks in parallel on the clouds the placement
        // policy picks (the paper's: the `n − f` fastest clouds, all of which
        // must acknowledge).
        let block = Bytes::new(block_size);
        let targets = spec
            .policy
            .write_targets(&spec.matrix, spec.width, spec.write_wait, block);
        let blocks = self.put_blocks(ctx, &name, version, &targets, &payloads);

        // Update and store the metadata object in every cloud. The caller's
        // clock only moves at a quorum wait, so this round is issued from
        // the same instant as the block round.
        let slots = targets.iter().zip(&payloads);
        let slots = slots.map(|(&cloud, block)| BlockSlot {
            cloud: cloud as u32,
            hash: sha256(block),
        });
        metadata.push_version(VersionInfo {
            version,
            // The address was just verified against the content: it is the
            // version's plaintext hash, and is not computed a second time.
            hash: *hash,
            size: data.len() as u64,
            block_size,
            slots: slots.collect(),
        });
        let encoded_md = metadata.encode();
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        let start = ctx.clock.now();
        let records = parallel_access(ctx, &self.clouds, &all, |_, cloud, c| {
            cloud.put(c, &Self::metadata_key(&name), &encoded_md)
        });
        self.record_outcomes(start, &records);
        // Both rounds are in flight: wait out both quorums (the clock ends at
        // the later instant) before reporting a failure of either.
        let data_quorum = await_quorum(ctx, &blocks, spec.write_wait);
        let metadata_quorum = await_quorum(ctx, &records, self.metadata_quorum());
        data_quorum.and(metadata_quorum)?;

        self.metadata_cache.lock().insert(name, metadata);
        Ok(())
    }

    /// Stores the blob `base|hash` as its blocks and nothing else — in SCFS,
    /// a chunk, whose hash the anchored manifest names. A block carries
    /// what a record would tell its reader (slot, key share, nonce,
    /// plaintext length), so this needs a placement whose holders follow
    /// from the spec alone ([`PlacementPolicy::implied_holders`]; the
    /// paper's layout puts slot `i` on the `i`-th fastest cloud). Under a
    /// policy that chooses holders per write, the blob is a unit with a
    /// record, [`DepSkyClient::write_blob`].
    ///
    /// One round of `width` block PUTs, waiting for `write_wait`; nothing is
    /// cached. The blocks are always `v1/`: a repeated write stores a fresh
    /// encryption over them, and a reader that meets blocks of both decodes
    /// no `f + 1` of them to `hash` unless they are of one
    /// ([`DepSkyClient::read_bare_blob`]).
    pub fn write_bare_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        data: &[u8],
    ) -> Result<(), StorageError> {
        let Some(holders) = self.implied_holders() else {
            return self.write_blob(ctx, base, hash, data);
        };
        let payloads = self.encode_blocks(hash, data)?;
        let name = Self::blob_unit(base, hash);
        let blocks = self.put_blocks(ctx, &name, 1, &holders, &payloads);
        await_quorum(ctx, &blocks, self.placement.write_wait)
    }

    /// Reads back the blob [`DepSkyClient::write_bare_blob`] stored: one
    /// round of block GETs to `f + 1` of the implied holders, widening to
    /// the rest on a miss, the plaintext checked against `hash` (at most
    /// C(3, 2) = 3 decodes at `f = 1`), exactly as the block round of a unit
    /// with a record. A Byzantine holder, or a repeated write that replaced
    /// some blocks, only costs a wave and decodes. If no `f + 1` blocks
    /// verify the read fails with a transient
    /// [`StorageError::QuorumNotReached`], so the anchor loop retries.
    pub fn read_bare_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        let Some(holders) = self.implied_holders() else {
            return self.read_blob(ctx, base, hash);
        };
        let name = Self::blob_unit(base, hash);
        // No record gives the block size before the read, or block hashes.
        let any_block = |_: usize, _: &[u8]| true;
        self.read_blocks(ctx, &name, 1, &holders, Bytes::ZERO, hash, any_block)
    }

    /// Deletes the blocks [`DepSkyClient::write_bare_blob`] stored: one DELETE
    /// per implied holder, best-effort, waiting out the slowest.
    pub fn delete_bare_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<(), StorageError> {
        let Some(holders) = self.implied_holders() else {
            return self.delete_blob(ctx, base, hash);
        };
        self.delete_blocks(ctx, &Self::blob_unit(base, hash), 1, &holders);
        Ok(())
    }

    /// Deletes block slot `i` of `version` from cloud `slots[i]`, every slot
    /// at once and best-effort, and waits out the slowest.
    fn delete_blocks(&self, ctx: &mut OpCtx<'_>, name: &str, version: u64, slots: &[usize]) {
        let holders = self.holders(slots);
        let outcomes = parallel_access(ctx, &self.clouds, &holders, |cloud_index, cloud, c| {
            cloud.delete(
                c,
                &Self::block_key(name, version, slot_on(slots, cloud_index)),
            )
        });
        join_all(ctx.clock, outcomes.iter().map(|o| o.completed_at));
    }

    /// Tries each set of `f + 1` of `blocks` that includes the last one and
    /// whose blocks agree on nonce and plaintext length: the plaintext of the
    /// first that decodes to content hashing to `hash`.
    fn open_with_newest(&self, blocks: &mut [BlockPayload], hash: &ContentHash) -> Option<Vec<u8>> {
        let newest = blocks.len().checked_sub(1)?;
        let (nonce, size) = (blocks[newest].nonce, blocks[newest].size);
        let picks = combinations(blocks.len(), self.config.data_shards());
        for pick in picks.into_iter().filter(|pick| pick.contains(&newest)) {
            if pick
                .iter()
                .any(|&i| blocks[i].nonce != nonce || blocks[i].size != size)
            {
                continue;
            }
            let plaintext = self.open(blocks, &pick, size);
            if plaintext.as_ref().is_some_and(|p| &sha256(p) == hash) {
                return plaintext;
            }
        }
        None
    }

    /// Decrypts the blob of `size` bytes that the `f + 1` blocks `pick` of
    /// `blocks` encode, if they are one encryption: their shards are lent to
    /// the decoder and put back, their key shares combined. `None` if they
    /// do not decode.
    fn open(&self, blocks: &mut [BlockPayload], pick: &[usize], size: u64) -> Option<Vec<u8>> {
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.coder.total_shards()];
        for &i in pick {
            if let Some(shard) = shards.get_mut(blocks[i].slot as usize) {
                *shard = Some(std::mem::take(&mut blocks[i].shard));
            }
        }
        let decoded = self.coder.decode(&shards, size as usize);
        for &i in pick {
            let lent = shards.get_mut(blocks[i].slot as usize);
            if let Some(shard) = lent.and_then(Option::take) {
                blocks[i].shard = shard;
            }
        }
        let mut plaintext = decoded.ok()?;
        let shares: Vec<Share> = pick
            .iter()
            .map(|&i| Share {
                index: blocks[i].share_index,
                data: blocks[i].share_data.clone(),
            })
            .collect();
        let key: [u8; 32] = combine_shares(&shares, pick.len()).ok()?.try_into().ok()?;
        ChaCha20::new(&key, &blocks[pick[0]].nonce).apply_keystream(1, &mut plaintext);
        Some(plaintext)
    }

    /// Reads back the immutable blob addressed by `base|hash` — the version
    /// of its unit whose plaintext hash is `hash`, the operation SCFS added
    /// to DepSky to implement consistency anchors — from the holders its
    /// record names, the plaintext checked against `hash`.
    pub fn read_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        let name = Self::blob_unit(base, hash);
        // Prefer cached metadata if it already knows this hash; otherwise do
        // a quorum metadata read (the version may not be visible yet, in
        // which case the caller retries — the consistency-anchor loop).
        if let Some(md) = self.cached_metadata(&name) {
            if let Some(info) = md.find_by_hash(hash) {
                return self.read_version(ctx, &name, info);
            }
        }
        // Records are unsigned: one Byzantine cloud may serve a fabricated
        // or an older one. Each distinct version of `hash` the records
        // name is tried in turn, the most-returned record's first, until
        // its blocks verify; only that record is cached.
        let records = self.read_records(ctx, &name)?;
        let mut tried: Vec<&VersionInfo> = Vec::new();
        let mut failure = StorageError::not_found(&name);
        for md in &records {
            let Some(info) = md.find_by_hash(hash) else {
                continue;
            };
            if tried.contains(&info) {
                continue;
            }
            tried.push(info);
            match self.read_version(ctx, &name, info) {
                Ok(data) => {
                    self.metadata_cache.lock().insert(name, md.clone());
                    return Ok(data);
                }
                Err(e) => failure = e,
            }
        }
        Err(failure)
    }

    /// Deletes the immutable blob addressed by `base|hash` from all clouds:
    /// the blocks of every version its metadata records, then the metadata
    /// object. A unit with no readable metadata record may still hold blocks
    /// (a [`DepSkyClient::write_blob`] whose data quorum landed but whose
    /// metadata quorum did not), so in that case the keys its only version
    /// can have used — every `v1/block{slot}` — are deleted on every cloud.
    /// Deletions are best-effort; the call waits out the slowest attempt.
    pub fn delete_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<(), StorageError> {
        let name = &Self::blob_unit(base, hash);
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        match self.known_metadata(ctx, name) {
            Ok(md) => {
                for info in &md.versions {
                    self.delete_blocks(ctx, name, info.version, &info.holder_clouds());
                }
            }
            Err(StorageError::NotFound { .. }) => {
                let width = self.placement.width;
                let outcomes = parallel_access(ctx, &self.clouds, &all, |_, cloud, c| {
                    for slot in 0..width {
                        // Most of these keys never existed.
                        cloud.delete(c, &Self::block_key(name, 1, slot)).ok();
                    }
                    Ok(())
                });
                join_all(ctx.clock, outcomes.iter().map(|o| o.completed_at));
            }
            Err(e) => return Err(e),
        }
        let key = Self::metadata_key(name);
        let outcomes =
            parallel_access(ctx, &self.clouds, &all, |_, cloud, c| cloud.delete(c, &key));
        join_all(ctx.clock, outcomes.iter().map(|o| o.completed_at));
        self.metadata_cache.lock().remove(name);
        Ok(())
    }

    /// Propagates an ACL to the metadata and all block objects of the blob
    /// addressed by `base|hash` in all clouds (the cloud-level half of SCFS
    /// `setfacl`, paper §2.6).
    pub fn set_blob_acl(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        acl: &Acl,
    ) -> Result<(), StorageError> {
        let name = &Self::blob_unit(base, hash);
        let md = self.known_metadata(ctx, name)?;
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        let md_key = Self::metadata_key(name);
        let outcomes = parallel_access(ctx, &self.clouds, &all, |cloud_index, cloud, c| {
            cloud.set_acl(c, &md_key, acl.clone()).or(Ok(()))?;
            // Each cloud also updates the ACL of the blocks it holds.
            for info in &md.versions {
                if let Some(slot) = info.slot_for_cloud(cloud_index) {
                    cloud
                        .set_acl(c, &Self::block_key(name, info.version, slot), acl.clone())
                        .ok();
                }
            }
            Ok(())
        });
        await_quorum(ctx, &outcomes, self.metadata_quorum())
    }

    /// Reads the unit's record from every cloud and waits for a quorum of
    /// answers. Returns the distinct records that decode, never none, the
    /// one the most clouds returned first (on a tie, the one listing more
    /// versions); a record every answering cloud agrees on is cached.
    fn read_records(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
    ) -> Result<Vec<DataUnitMetadata>, StorageError> {
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        let key = Self::metadata_key(name);
        let start = ctx.clock.now();
        let outcomes = parallel_access(ctx, &self.clouds, &all, |_, cloud, c| cloud.get(c, &key));
        self.record_outcomes(start, &outcomes);
        // Wait for a quorum of responses of any kind before deciding
        // (`n − f` on the fixed deployment, a pool majority when placed).
        let quorum = self.metadata_quorum();
        if outcomes.len() >= quorum {
            ctx.clock.advance_to(outcomes[quorum - 1].completed_at);
        }
        let mut records: Vec<(usize, DataUnitMetadata)> = Vec::new();
        let answers = outcomes.iter().filter_map(|o| o.value.as_ref().ok());
        for md in answers.filter_map(|bytes| DataUnitMetadata::decode(bytes).ok()) {
            match records.iter_mut().find(|(_, known)| *known == md) {
                Some((votes, _)) => *votes += 1,
                None => records.push((1, md)),
            }
        }
        records.sort_by(|(va, a), (vb, b)| {
            vb.cmp(va)
                .then_with(|| b.versions.len().cmp(&a.versions.len()))
        });
        if let [(_, md)] = records.as_slice() {
            self.metadata_cache
                .lock()
                .insert(name.to_string(), md.clone());
        }
        if records.is_empty() {
            return Err(StorageError::not_found(key));
        }
        Ok(records.into_iter().map(|(_, md)| md).collect())
    }

    /// Fetches and reconstructs one specific version: only a block whose
    /// hash the record names for its slot is a candidate, and the plaintext
    /// is checked against the address as well.
    fn read_version(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        info: &VersionInfo,
    ) -> Result<Vec<u8>, StorageError> {
        let block = Bytes::new(info.block_size);
        let recorded = |slot: usize, bytes: &[u8]| {
            (info.slots.get(slot)).is_some_and(|s| s.hash == sha256(bytes))
        };
        let slots = info.holder_clouds();
        self.read_blocks(ctx, name, info.version, &slots, block, &info.hash, recorded)
    }

    /// Reads the blob `hash` from the blocks of `version`, slot `i` on cloud
    /// `slots[i]`: one round of GETs racing the first `f + 1` holders in the
    /// policy's order, exactly the blocks a decode needs, widening to the
    /// rest once that wave has fully resolved (so a widening pays its
    /// latency). Each block that arrives carrying the slot its holder
    /// should hold, and that `vouched` accepts for that slot, joins the
    /// candidates; the read returns at the first arrival that completes
    /// `f + 1` of them decoding to `hash`
    /// ([`DepSkyClient::open_with_newest`]). If none does, the clock ends
    /// at the last answer and the read fails with a transient
    /// [`StorageError::QuorumNotReached`].
    #[expect(
        clippy::too_many_arguments,
        reason = "what the unit, its version and its holders each say"
    )]
    fn read_blocks(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        version: u64,
        slots: &[usize],
        block: Bytes,
        hash: &ContentHash,
        vouched: impl Fn(usize, &[u8]) -> bool,
    ) -> Result<Vec<u8>, StorageError> {
        let needed = self.config.data_shards();
        let spec = &self.placement;
        let holders = self.holders(slots);
        let order = spec
            .policy
            .read_order(&spec.matrix, &holders, needed, block);
        let (primary, fallback) = order.split_at(needed.min(order.len()));
        let mut arrived: Vec<BlockPayload> = Vec::new();
        let mut last = None;
        for wave in [primary, fallback] {
            if wave.is_empty() {
                continue;
            }
            if let Some(at) = last {
                ctx.clock.advance_to(at);
            }
            let start = ctx.clock.now();
            let outcomes = parallel_access(ctx, &self.clouds, wave, |cloud_index, cloud, c| {
                cloud.get(
                    c,
                    &Self::block_key(name, version, slot_on(slots, cloud_index)),
                )
            });
            self.record_outcomes(start, &outcomes);
            for outcome in &outcomes {
                let slot = slot_on(slots, outcome.index);
                let bytes = outcome.value.as_deref().ok();
                let Some(block) = bytes
                    .filter(|bytes| vouched(slot, bytes))
                    .and_then(|bytes| decode_block(bytes).ok())
                else {
                    continue;
                };
                let shard_len = self.coder.shard_size(block.size as usize).max(1);
                if block.slot as usize != slot || block.shard.len() != shard_len {
                    continue;
                }
                arrived.push(block);
                if let Some(plaintext) = self.open_with_newest(&mut arrived, hash) {
                    ctx.clock.advance_to(outcome.completed_at);
                    return Ok(plaintext);
                }
            }
            last = outcomes.last().map(|o| o.completed_at).or(last);
        }
        if let Some(at) = last {
            ctx.clock.advance_to(at);
        }
        // No `f + 1` of the blocks are one encryption of `hash`: at most `f`
        // of them count.
        Err(StorageError::QuorumNotReached {
            needed,
            obtained: arrived.len().min(needed - 1),
        })
    }
}

/// One cloud's answer to a request issued in parallel with the others:
/// `index` is the cloud's position in the client's cloud list.
type CloudRun<T> = ForkedRun<Result<T, StorageError>>;

/// Issues `op` against every cloud in `indices` in parallel — each on a fork
/// of the caller's clock, under the caller's account — and returns the
/// answers sorted by completion instant. DepSky proceeds as soon as a quorum
/// has answered (paper §3.2): the caller's clock is *not* advanced here; join
/// the quorum the protocol step needs ([`await_quorum`], `join_all`).
fn parallel_access<T>(
    ctx: &OpCtx<'_>,
    clouds: &[Arc<dyn ObjectStore>],
    indices: &[usize],
    mut op: impl FnMut(usize, &dyn ObjectStore, &mut OpCtx<'_>) -> Result<T, StorageError>,
) -> Vec<CloudRun<T>> {
    run_forked(&*ctx.clock, indices.iter().copied(), |i, fork| {
        op(
            i,
            clouds[i].as_ref(),
            &mut OpCtx::new(fork, ctx.account.clone()),
        )
    })
}

/// Waits for `needed` successful outcomes: advances the caller's clock to the
/// instant the quorum formed, or to the last completion and fails.
fn await_quorum<T>(
    ctx: &mut OpCtx<'_>,
    outcomes: &[CloudRun<T>],
    needed: usize,
) -> Result<(), StorageError> {
    let answers = outcomes.iter().map(|o| (o.completed_at, o.value.is_ok()));
    if join_nth(ctx.clock, answers, needed) {
        Ok(())
    } else {
        Err(StorageError::QuorumNotReached {
            needed,
            obtained: outcomes.iter().filter(|o| o.value.is_ok()).count(),
        })
    }
}

/// The slot a write of `holders` puts on cloud `cloud`: its position there.
fn slot_on(holders: &[usize], cloud: usize) -> usize {
    holders.iter().position(|&h| h == cloud).unwrap_or(cloud)
}

fn encode_block(
    slot: u8,
    share_index: u8,
    nonce: &[u8; 12],
    size: u64,
    share: &[u8],
    shard: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(slot)
        .put_u8(share_index)
        .put_bytes(nonce)
        .put_u64(size)
        .put_bytes(share)
        .put_bytes(shard);
    w.finish()
}

fn decode_block(bytes: &[u8]) -> Result<BlockPayload, DecodeError> {
    let mut r = Reader::new(bytes);
    let slot = r.get_u8()?;
    let share_index = r.get_u8()?;
    let nonce_bytes = r.get_bytes_max(12)?;
    let nonce: [u8; 12] = nonce_bytes.try_into().map_err(|_| DecodeError {
        reason: format!("nonce must be 12 bytes, got {}", nonce_bytes.len()),
    })?;
    let size = r.get_u64()?;
    let share_data = r.get_bytes()?;
    let shard = r.get_bytes()?;
    if !r.is_exhausted() {
        return Err(DecodeError {
            reason: format!("{} trailing bytes after block", r.remaining()),
        });
    }
    Ok(BlockPayload {
        slot,
        share_index,
        nonce,
        size,
        share_data,
        shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::providers::{ProviderProfile, ProviderSet};
    use cloud_store::sim_cloud::SimulatedCloud;
    use proptest::prelude::*;
    use sim_core::fault::FaultPlan;
    use sim_core::latency::LatencyModel;
    use sim_core::time::{Clock, SimDuration, SimInstant};

    fn sim_clouds(n: usize) -> Vec<Arc<SimulatedCloud>> {
        ProviderSet::test_backend(n)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Arc::new(SimulatedCloud::new(p, i as u64)))
            .collect()
    }

    fn as_stores(clouds: &[Arc<SimulatedCloud>]) -> Vec<Arc<dyn ObjectStore>> {
        clouds
            .iter()
            .map(|c| c.clone() as Arc<dyn ObjectStore>)
            .collect()
    }

    fn test_clouds(n: usize) -> Vec<Arc<dyn ObjectStore>> {
        as_stores(&sim_clouds(n))
    }

    fn client(clouds: Vec<Arc<dyn ObjectStore>>) -> DepSkyClient {
        DepSkyClient::new(clouds, DepSkyConfig::scfs_default(), 42).unwrap()
    }

    fn ctx<'a>(clock: &'a mut Clock) -> OpCtx<'a> {
        OpCtx::new(clock, "alice".into())
    }

    /// Writes `data` as a blob of base `f` and returns its address.
    fn write(ds: &DepSkyClient, c: &mut OpCtx<'_>, data: &[u8]) -> ContentHash {
        let hash = sha256(data);
        ds.write_blob(c, "f", &hash, data).unwrap();
        hash
    }

    /// Reads blob `hash` of base `f` through a client with no metadata
    /// cache, on a clock of its own that starts at `at`.
    fn cold_read(
        reader: &DepSkyClient,
        at: SimDuration,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        let mut clock = Clock::new();
        clock.advance(at);
        reader.read_blob(&mut ctx(&mut clock), "f", hash)
    }

    /// Writes `data` as a bare blob of base `chunks` and returns its
    /// address.
    fn write_bare(ds: &DepSkyClient, c: &mut OpCtx<'_>, data: &[u8]) -> ContentHash {
        let hash = sha256(data);
        ds.write_bare_blob(c, "chunks", &hash, data).unwrap();
        hash
    }

    /// Reads bare blob `hash` of base `chunks` as [`cold_read`] does.
    fn cold_bare_read(
        reader: &DepSkyClient,
        at: SimDuration,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        let mut clock = Clock::new();
        clock.advance(at);
        reader.read_bare_blob(&mut ctx(&mut clock), "chunks", hash)
    }

    fn stored_bytes(sims: &[Arc<SimulatedCloud>]) -> u64 {
        sims.iter().map(|cl| cl.stored_bytes().get()).sum()
    }

    #[test]
    fn read_by_hash_returns_the_right_version() {
        // A re-written unit holds two encryptions of one content. A reader
        // holding the first record is handed the first one's blocks, a cold
        // one the second's: overwriting `v1` in place would give the former
        // the blocks of a key its record's hashes do not describe.
        let sims = sim_clouds(4);
        let writer = client(as_stores(&sims));
        let reader = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = b"one content, written twice".to_vec();
        let hash = write(&writer, &mut c, &data);
        let unit = DepSkyClient::blob_unit("f", &hash);
        assert_eq!(reader.read_blob(&mut c, "f", &hash).unwrap(), data);
        write(&writer, &mut c, &data);

        assert_eq!(reader.cached_metadata(&unit).unwrap().versions.len(), 1);
        assert_eq!(reader.read_blob(&mut c, "f", &hash).unwrap(), data);
        let cold = client(as_stores(&sims));
        let md = cold.known_metadata(&mut c, &unit).unwrap();
        let versions: Vec<u64> = md.versions.iter().map(|v| v.version).collect();
        assert_eq!(versions, [1, 2], "a re-write appends, it does not replace");
        assert_ne!(md.versions[0].slots, md.versions[1].slots);
        assert_eq!(md.find_by_hash(&hash).unwrap().version, 2);
        assert_eq!(cold.read_blob(&mut c, "f", &hash).unwrap(), data);
        let missing = sha256(b"never written");
        assert!(writer.read_blob(&mut c, "f", &missing).is_err());
    }

    #[test]
    fn wrong_cloud_count_is_rejected() {
        for n in [3, 5] {
            let err =
                DepSkyClient::new(test_clouds(n), DepSkyConfig::scfs_default(), 1).unwrap_err();
            assert!(matches!(err, StorageError::InvalidRequest { .. }), "{n}");
        }
    }

    /// An [`AllClouds`] spec of the given geometry over the first `matrix`
    /// of `sims`' profiles.
    fn all_clouds_spec(
        sims: &[Arc<SimulatedCloud>],
        matrix: usize,
        width: usize,
        write_wait: usize,
    ) -> PlacementSpec {
        let profiles = sims[..matrix].iter().map(|s| s.profile().clone());
        PlacementSpec {
            matrix: Arc::new(ProviderMatrix::new(profiles.collect())),
            policy: Arc::new(AllClouds),
            width,
            write_wait,
        }
    }

    #[test]
    fn with_placement_rejects_a_geometry_the_pool_cannot_serve() {
        // (pool, matrix, width, write wait, the complaint), with f + 1 = 2.
        let sims = sim_clouds(5);
        let cases = [
            (3, 3, 2, 2, "at least 4 clouds"),
            (5, 4, 3, 2, "matrix covers 4 clouds but the pool has 5"),
            (5, 5, 1, 1, "width 1 outside [2, 5]"),
            (5, 5, 6, 2, "width 6 outside [2, 5]"),
            (5, 5, 3, 1, "wait 1 outside [2, 3]"),
            (5, 5, 3, 4, "wait 4 outside [2, 3]"),
        ];
        for (pool, matrix, width, wait, complaint) in cases {
            let spec = all_clouds_spec(&sims, matrix, width, wait);
            let stores = as_stores(&sims[..pool]);
            let config = DepSkyConfig::scfs_default();
            match DepSkyClient::with_placement(stores, config, spec, 1) {
                Err(StorageError::InvalidRequest { reason }) => {
                    assert!(reason.contains(complaint), "{reason}");
                }
                other => panic!("{complaint}: {other:?}"),
            }
        }
        // The bounds themselves are served.
        for (width, wait) in [(2, 2), (5, 2), (5, 5)] {
            let spec = all_clouds_spec(&sims, 5, width, wait);
            let config = DepSkyConfig::scfs_default();
            assert!(DepSkyClient::with_placement(as_stores(&sims), config, spec, 1).is_ok());
        }
    }

    #[test]
    fn a_cold_read_races_f_plus_one_holders_then_widens() {
        // (write wait, cloud down at the read, block GETs): the paper's
        // layout through `new`, whose writes wait for all three holders, and
        // a (3, 2) spec both race two, and a third once one of those two is
        // down.
        let cases = [
            (None, None, 2),
            (Some(2), None, 2),
            (None, Some(0), 3),
            (Some(2), Some(0), 3),
        ];
        for (wait, down, gets) in cases {
            let sims = sim_clouds(4);
            let build = |seed| match wait {
                None => client(as_stores(&sims)),
                Some(wait) => {
                    let spec = all_clouds_spec(&sims, 4, 3, wait);
                    let config = DepSkyConfig::scfs_default();
                    DepSkyClient::with_placement(as_stores(&sims), config, spec, seed).unwrap()
                }
            };
            let mut clock = Clock::new();
            let data = vec![1u8; 4096];
            let hash = write(&build(1), &mut ctx(&mut clock), &data);
            let bare = write_bare(&build(1), &mut ctx(&mut clock), &data);
            if let Some(cloud) = down {
                let outage = FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000));
                sims[cloud].set_fault_plan(outage, 2);
            }
            // Every GET a cloud saw, answered or refused.
            let requests = || -> u64 {
                let snapshots = sims.iter().map(|s| s.metrics().snapshot());
                snapshots.map(|m| m.gets + m.errors).sum()
            };
            let before = requests();
            assert_eq!(
                cold_read(&build(2), SimDuration::ZERO, &hash).unwrap(),
                data
            );
            // One metadata GET per cloud, then the block GETs.
            assert_eq!(requests() - before - 4, gets, "{wait:?} {down:?}");
            // A bare blob makes the block GETs alone.
            let before = requests();
            let read = cold_bare_read(&build(3), SimDuration::ZERO, &bare);
            assert_eq!(read.unwrap(), data);
            assert_eq!(requests() - before, gets, "bare {wait:?} {down:?}");
        }
    }

    #[test]
    fn data_survives_one_byzantine_cloud() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let data = vec![7u8; 4096];
        let hash = write(&ds, &mut ctx(&mut clock), &data);

        // Cloud 0 turns Byzantine after the write and corrupts everything it
        // returns; the quorum read must mask it.
        sims[0].set_fault_plan(FaultPlan::always_byzantine(), 99);

        // A fresh client (no metadata cache) must still read the data.
        let reader = client(as_stores(&sims));
        assert_eq!(cold_read(&reader, SimDuration::ZERO, &hash).unwrap(), data);
    }

    #[test]
    fn data_survives_one_unavailable_cloud() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let data = vec![3u8; 1000];
        let hash = write(&ds, &mut ctx(&mut clock), &data);

        sims[1].set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
            5,
        );

        let reader = client(as_stores(&sims));
        assert_eq!(cold_read(&reader, SimDuration::ZERO, &hash).unwrap(), data);
    }

    #[test]
    fn no_single_cloud_stores_the_plaintext() {
        let clouds = test_clouds(4);
        let ds = client(clouds.clone());
        let mut clock = Clock::new();
        let secret = b"TOP-SECRET corporate budget 2014".to_vec();
        write(&ds, &mut ctx(&mut clock), &secret);
        // Inspect every object in every cloud: none of them may contain the
        // plaintext (confidentiality against a curious provider).
        for cloud in &clouds {
            let mut clk = Clock::new();
            let mut cc = OpCtx::new(&mut clk, "alice".into());
            for key in cloud.list(&mut cc, KEY_SPACE).unwrap() {
                let bytes = cloud.get(&mut cc, &key).unwrap();
                assert!(
                    !contains_subslice(&bytes, &secret),
                    "cloud {} leaked the plaintext in {key}",
                    cloud.id()
                );
            }
        }
    }

    fn contains_subslice(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn storage_overhead_is_about_1_5x_with_preferred_quorum() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let data = vec![0u8; 1_000_000];
        write(&ds, &mut ctx(&mut clock), &data);
        let overhead = stored_bytes(&sims) as f64 / data.len() as f64;
        assert!(
            (1.4..1.7).contains(&overhead),
            "storage overhead was {overhead}"
        );
    }

    /// Clouds of the given constant request latencies, named `c{i}`.
    fn latency_clouds(latencies_ms: [f64; 4]) -> Vec<Arc<SimulatedCloud>> {
        let clouds = latencies_ms.iter().enumerate().map(|(i, ms)| {
            let mut p = ProviderProfile::instantaneous(&format!("c{i}"));
            p.latency.request = LatencyModel::constant_ms(*ms);
            Arc::new(SimulatedCloud::new(p, i as u64))
        });
        clouds.collect()
    }

    /// A fixed-placement client over clouds of the given constant latencies.
    fn client_with_latencies(latencies_ms: [f64; 4]) -> DepSkyClient {
        client(as_stores(&latency_clouds(latencies_ms)))
    }

    #[test]
    fn write_blob_overlaps_the_rounds_a_mutable_write_orders() {
        // DepSky's register stores the metadata record only once the data
        // quorum is in (two rounds: 200 ms here). Nothing can name a
        // write-once blob before its writer returns and publishes the hash,
        // so its two rounds leave at the same instant.
        let ds = client_with_latencies([100.0; 4]);
        let mut clock = Clock::new();
        write(&ds, &mut ctx(&mut clock), &[7u8; 512]);
        assert_eq!(
            clock.now(),
            SimInstant::from_millis(100),
            "both rounds in flight together"
        );
    }

    #[test]
    fn quorum_write_latency_hides_the_slowest_cloud() {
        // Blocks go to the three preferred clouds and all must acknowledge;
        // the metadata record goes to all four and waits for `n − f` = 3. The
        // 5-second cloud holds no block and is off the critical path.
        let ds = client_with_latencies([100.0, 200.0, 300.0, 5_000.0]);
        let mut clock = Clock::new();
        write(&ds, &mut ctx(&mut clock), b"x");
        assert_eq!(clock.now(), SimInstant::from_millis(300));
    }

    #[test]
    fn delete_all_removes_the_data_unit() {
        // Every version's blocks go, not only the newest's or `v1`'s.
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = vec![5u8; 300];
        let hash = write(&ds, &mut c, &data);
        write(&ds, &mut c, &data);
        let keys: Vec<String> = sims.iter().flat_map(|s| s.stored_keys(KEY_SPACE)).collect();
        assert_eq!(keys.iter().filter(|k| k.contains("/v1/")).count(), 3);
        assert_eq!(keys.iter().filter(|k| k.contains("/v2/")).count(), 3);
        ds.delete_blob(&mut c, "f", &hash).unwrap();
        for sim in &sims {
            assert_eq!(sim.stored_keys(KEY_SPACE), Vec::<String>::new());
        }
        let reader = client(as_stores(&sims));
        assert!(cold_read(&reader, SimDuration::ZERO, &hash).is_err());
    }

    #[test]
    fn blob_round_trip_is_content_addressed() {
        let ds = client(test_clouds(4));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = vec![9u8; 2048];
        let hash = sha256(&data);
        ds.write_blob(&mut c, "file-1", &hash, &data).unwrap();
        assert_eq!(ds.read_blob(&mut c, "file-1", &hash).unwrap(), data);
        // A blob cannot be stored under the wrong address.
        let wrong = sha256(b"other");
        assert!(ds.write_blob(&mut c, "file-1", &wrong, &data).is_err());
        // Deleting the blob makes it unreadable for a fresh client.
        ds.delete_blob(&mut c, "file-1", &hash).unwrap();
        let reader = client(ds.clouds.clone());
        let mut clock_b = Clock::new();
        let mut cb = ctx(&mut clock_b);
        assert!(reader.read_blob(&mut cb, "file-1", &hash).is_err());
    }

    #[test]
    fn write_blob_rejects_a_wrong_address_before_any_put() {
        let clouds = sim_clouds(4);
        let ds = client(as_stores(&clouds));
        let mut clock = Clock::new();
        let data = vec![9u8; 2048];
        let wrong = sha256(b"other");
        assert!(ds
            .write_blob(&mut ctx(&mut clock), "file-1", &wrong, &data)
            .is_err());
        for cloud in &clouds {
            assert_eq!(cloud.metrics().snapshot().puts, 0);
        }
        assert_eq!(clock.now(), SimInstant::EPOCH);
    }

    #[test]
    fn the_verified_address_is_the_hash_every_write_path_records() {
        // `write_blob` hands its verified address down as the version's
        // plaintext hash instead of hashing the data a second time: the
        // record every cloud stores must carry the content's SHA-256.
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let ds = client(test_clouds(4));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let hash = write(&ds, &mut c, &data);
        let unit = DepSkyClient::blob_unit("f", &hash);
        let md = client(ds.clouds.clone())
            .known_metadata(&mut c, &unit)
            .unwrap();
        assert_eq!(md.versions.len(), 1);
        assert_eq!(md.versions[0].hash, sha256(&data));
        assert_eq!(md.versions[0].size, data.len() as u64);
        assert_eq!(Some(md), ds.cached_metadata(&unit));
    }

    #[test]
    fn stored_bytes_do_not_depend_on_the_kernel_that_wrote_them() {
        // Every byte a fixed-seed write leaves in the clouds: a reader of old
        // data cannot tell which SHA-256, ChaCha20 or GF(256) code wrote it.
        // Both digests are those the scalar kernels alone produce (each
        // detection forced off) for today's formats: a block carries its
        // blob's plaintext length, and a record names its holders.
        let clouds: Vec<Arc<dyn ObjectStore>> = (0..4)
            .map(|i| Arc::new(SimulatedCloud::test(&format!("pin{i}"))) as Arc<dyn ObjectStore>)
            .collect();
        let ds = client(clouds.clone());
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data: Vec<u8> = (0..(1usize << 20) + 17)
            .map(|i| (i * 31 + i / 251) as u8)
            .collect();
        let hash = write(&ds, &mut c, &data);
        let mut stored = scfs_crypto::Sha256::new();
        let mut blocks = scfs_crypto::Sha256::new();
        for cloud in &clouds {
            let mut keys = cloud.list(&mut c, KEY_SPACE).unwrap();
            keys.sort();
            for key in keys {
                let bytes = cloud.get(&mut c, &key).unwrap();
                stored.update(key.as_bytes());
                stored.update(&bytes);
                if key.contains("/block") {
                    blocks.update(key.as_bytes());
                    blocks.update(&bytes);
                }
            }
        }
        assert_eq!(
            scfs_crypto::to_hex(&blocks.finalize()),
            "c66ef412f9b4916c0bd6e48370a7ae4dbc7c360a3909ba5ece35b9e6de6b400b"
        );
        assert_eq!(
            scfs_crypto::to_hex(&stored.finalize()),
            "2e16c65eded4218fed05f1d415592cd74a8066e0e4278911b24873d9a7a55f25"
        );
        assert_eq!(ds.read_blob(&mut c, "f", &hash).unwrap(), data);
    }

    #[test]
    fn blob_units_embed_base_and_hash() {
        let hash = sha256(b"x");
        let hex = scfs_crypto::to_hex(&hash);
        let unit = DepSkyClient::blob_unit("alice-f1", &hash);
        assert_eq!(unit, format!("alice-f1|{hex}"));
        // Both kinds of object a unit has name the blob, and nothing else
        // under or outside the key space does.
        for key in [
            DepSkyClient::metadata_key(&unit),
            DepSkyClient::block_key(&unit, 3, 2),
        ] {
            assert!(key.starts_with(&format!("depsky/alice-f1|{hex}/")), "{key}");
            assert_eq!(DepSkyClient::blob_of_key(&key), Some(("alice-f1", hash)));
        }
        for key in [
            format!("depsky/alice-f1/{hex}/metadata"),
            format!("depsky/alice-f1|{}/metadata", hex.to_uppercase()),
            format!("depsky/alice-f1|{}/metadata", &hex[2..]),
            format!("other/alice-f1|{hex}/metadata"),
        ] {
            assert_eq!(DepSkyClient::blob_of_key(&key), None, "{key}");
        }
    }

    #[test]
    fn acl_propagation_lets_another_account_read() {
        use cloud_store::types::Permission;
        let clouds = test_clouds(4);
        let ds = client(clouds.clone());
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = b"shared doc".to_vec();
        let hash = write(&ds, &mut c, &data);

        // Bob, with his own client and account, is not admitted...
        let bob = client(clouds);
        let mut clock_b = Clock::new();
        clock_b.advance(SimDuration::from_secs(5));
        let mut cb = OpCtx::new(&mut clock_b, "bob".into());
        assert!(bob.read_blob(&mut cb, "f", &hash).is_err());

        // ...until the ACL reaches the unit's objects in every cloud.
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        ds.set_blob_acl(&mut c, "f", &hash, &acl).unwrap();
        assert_eq!(bob.read_blob(&mut cb, "f", &hash).unwrap(), data);
    }

    // ---- bare blobs: a chunk is its blocks ----

    /// (PUTs, GETs answered or refused, DELETEs) the clouds have seen.
    fn request_counts(sims: &[Arc<SimulatedCloud>]) -> (u64, u64, u64) {
        let snapshots = sims.iter().map(|s| s.metrics().snapshot());
        snapshots.fold((0, 0, 0), |(p, g, d), m| {
            (p + m.puts, g + m.gets + m.errors, d + m.deletes)
        })
    }

    #[test]
    fn a_bare_blob_is_one_round_of_blocks_each_way() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        let hash = write_bare(&ds, &mut c, &data);
        assert_eq!(request_counts(&sims), (3, 0, 0), "three block PUTs");
        let keys: Vec<Vec<String>> = sims.iter().map(|s| s.stored_keys(KEY_SPACE)).collect();
        let unit = DepSkyClient::blob_unit("chunks", &hash);
        for (cloud, keys) in keys.iter().enumerate() {
            let expected: Vec<String> = (cloud < 3)
                .then(|| DepSkyClient::block_key(&unit, 1, cloud))
                .into_iter()
                .collect();
            assert_eq!(keys, &expected, "slot i on cloud i, and no record");
        }
        assert_eq!(ds.cached_units(), Vec::<String>::new());

        assert_eq!(
            cold_bare_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash),
            Ok(data)
        );
        assert_eq!(request_counts(&sims), (3, 2, 0), "f + 1 block GETs");
        ds.delete_bare_blob(&mut c, "chunks", &hash).unwrap();
        assert_eq!(request_counts(&sims), (3, 2, 3), "three block DELETEs");
        for sim in &sims {
            assert_eq!(sim.stored_keys(KEY_SPACE), Vec::<String>::new());
        }
        assert!(cold_bare_read(&ds, SimDuration::ZERO, &hash).is_err());
    }

    /// The paper's four clouds, handed to a client in `order` of
    /// [`ProviderSet::coc_storage_backend`] (S3, GCS, Rackspace, Azure).
    fn paper_clouds(order: [usize; 4]) -> Vec<Arc<SimulatedCloud>> {
        let profiles = ProviderSet::coc_storage_backend();
        let clouds = order.iter().map(|&i| {
            let profile = profiles[i].clone();
            Arc::new(SimulatedCloud::new(profile, i as u64))
        });
        clouds.collect()
    }

    /// The cloud id each block slot of `unit`'s `v1` is stored on, and the
    /// ids of the clouds storing any object of it.
    fn placement_of(sims: &[Arc<SimulatedCloud>], unit: &str) -> (Vec<String>, Vec<String>) {
        let on = |key: &str| -> Vec<String> {
            let clouds = sims.iter().filter(|s| !s.stored_keys(key).is_empty());
            clouds.map(|s| s.id().to_string()).collect()
        };
        let slots = (0..3).flat_map(|slot| on(&DepSkyClient::block_key(unit, 1, slot)));
        (slots.collect(), on(&format!("{KEY_SPACE}{unit}/")))
    }

    #[test]
    fn new_puts_blocks_on_the_three_fastest_clouds() {
        // However the pool is handed over, slot i lands on the i-th fastest
        // paper cloud by advertised request latency: Azure, Rackspace, S3.
        // GCS, the slowest, holds a unit's record and never a block.
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let sims = paper_clouds(order);
            let ds = client(as_stores(&sims));
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            let data = vec![6u8; 3_000];
            let bare = write_bare(&ds, &mut c, &data);
            let (slots, holders) = placement_of(&sims, &DepSkyClient::blob_unit("chunks", &bare));
            assert_eq!(slots, ["azure", "rackspace", "s3"], "{order:?}");
            assert!(!holders.contains(&"gcs".to_string()), "{order:?}");
            let hash = write(&ds, &mut c, &data);
            let unit = DepSkyClient::blob_unit("f", &hash);
            assert_eq!(placement_of(&sims, &unit).0, ["azure", "rackspace", "s3"]);
            let gcs = sims.iter().find(|s| s.id() == "gcs").unwrap();
            assert_eq!(
                gcs.stored_keys(KEY_SPACE),
                [DepSkyClient::metadata_key(&unit)],
                "{order:?}"
            );
        }
        // Equal profiles keep pool order: slot i on the i-th cloud handed
        // over, whichever that is.
        let sims = sim_clouds(4);
        let pool = [2, 0, 3, 1].map(|i| sims[i].clone());
        let mut clock = Clock::new();
        let bare = write_bare(&client(as_stores(&pool)), &mut ctx(&mut clock), b"equal");
        let (slots, _) = placement_of(&pool, &DepSkyClient::blob_unit("chunks", &bare));
        assert_eq!(slots, ["cloud2", "cloud0", "cloud3"]);
    }

    #[test]
    fn a_cold_bare_read_fetches_f_plus_one_blocks_from_the_fastest_holders() {
        // In the paper's layout a fault-free read races Azure and Rackspace
        // and never asks S3, the third holder, or GCS, which holds nothing.
        let sims = paper_clouds([0, 1, 2, 3]);
        let mut clock = Clock::new();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let hash = write_bare(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
        let read = cold_bare_read(&client(as_stores(&sims)), SETTLED, &hash);
        assert_eq!(read, Ok(data));
        let gets = sims.iter().map(|s| {
            let m = s.metrics().snapshot();
            (s.id().to_string(), m.gets + m.errors)
        });
        let gets: BTreeMap<String, u64> = gets.collect();
        let expected = [("azure", 1), ("gcs", 0), ("rackspace", 1), ("s3", 0)];
        let expected = expected.map(|(id, n)| (id.to_string(), n));
        assert_eq!(gets, BTreeMap::from(expected));
    }

    /// The faults a raced holder may show a read: down, or lying about
    /// every byte it returns.
    fn faults() -> [(&'static str, FaultPlan); 2] {
        let outage = FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000));
        [
            ("outage", outage),
            ("byzantine", FaultPlan::always_byzantine()),
        ]
    }

    #[test]
    fn a_faulty_raced_holder_costs_one_widening() {
        // Handed over as c0..c3, the clouds sort to c1 (100 ms), c3 (200),
        // c0 (300), c2 (400): the read races c1 and c3. With c1 faulty the
        // first wave resolves 200 ms in without two good blocks, and only
        // then does the read ask c0, which answers 300 ms later.
        let start = SimInstant::from_secs(1);
        for (what, plan) in faults() {
            let sims = latency_clouds([300.0, 100.0, 400.0, 200.0]);
            let mut clock = Clock::new();
            let data = vec![8u8; 4096];
            let hash = write_bare(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
            assert!(clock.now() <= start, "{what}: the blocks are stored");
            sims[1].set_fault_plan(plan, 4);
            let before = request_counts(&sims).1;
            let mut clock = Clock::new();
            clock.advance_to(start);
            let reader = client(as_stores(&sims));
            let read = reader.read_bare_blob(&mut ctx(&mut clock), "chunks", &hash);
            assert!(read == Ok(data), "{what}: {read:?}");
            assert_eq!(request_counts(&sims).1 - before, 3, "{what}");
            assert_eq!(sims[2].metrics().snapshot().gets, 0, "{what}");
            let first_wave = start + SimDuration::from_millis(200);
            let widened = first_wave + SimDuration::from_millis(300);
            assert_eq!(clock.now(), widened, "{what}");
        }
    }

    #[test]
    fn two_faulty_raced_holders_fail_a_read_transiently() {
        // Past f: both raced holders are faulty, and the widening finds one
        // honest block, which decodes to nothing on its own.
        for (first, one) in faults() {
            for (second, two) in faults() {
                let sims = sim_clouds(4);
                let mut clock = Clock::new();
                let hash = write_bare(
                    &client(as_stores(&sims)),
                    &mut ctx(&mut clock),
                    &[5u8; 4096],
                );
                sims[0].set_fault_plan(one.clone(), 1);
                sims[1].set_fault_plan(two.clone(), 2);
                let read = cold_bare_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash);
                let err = read.unwrap_err();
                let expected = StorageError::QuorumNotReached {
                    needed: 2,
                    obtained: 1,
                };
                assert_eq!(err, expected, "{first} + {second}");
                assert!(err.is_transient(), "{first} + {second}");
            }
        }
    }

    #[test]
    fn a_bare_blob_keeps_a_record_where_the_policy_places_per_write() {
        // Nothing but a record could say which clouds a cheapest quorum
        // chose, so there the blob is a unit with one.
        let (sims, matrix) = matrix_clouds(7);
        let kind = PolicyKind::CheapestQuorum { slo_millis: 2_500 };
        let ds = placed_client(&sims, matrix.clone(), kind, 1);
        let mut clock = Clock::new();
        let data = vec![4u8; 3_000];
        let hash = write_bare(&ds, &mut ctx(&mut clock), &data);
        let unit = DepSkyClient::blob_unit("chunks", &hash);
        assert_eq!(ds.cached_units(), vec![unit.clone()]);
        let records = sims
            .iter()
            .map(|s| s.stored_keys(&DepSkyClient::metadata_key(&unit)));
        assert_eq!(records.filter(|keys| !keys.is_empty()).count(), sims.len());
        let reader = placed_client(&sims, matrix, kind, 2);
        assert_eq!(cold_bare_read(&reader, SETTLED, &hash), Ok(data));
    }

    #[test]
    fn a_bare_blob_survives_one_byzantine_holder() {
        for holder in 0..3 {
            let sims = sim_clouds(4);
            let mut clock = Clock::new();
            let data = vec![7u8; 4096];
            let hash = write_bare(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
            sims[holder].set_fault_plan(FaultPlan::always_byzantine(), 99);
            let reader = client(as_stores(&sims));
            let read = cold_bare_read(&reader, SimDuration::ZERO, &hash);
            assert_eq!(read, Ok(data), "holder {holder}");
            assert_eq!(reader.cached_units(), Vec::<String>::new());
        }
    }

    #[test]
    fn a_rewrite_over_some_holders_still_reads_the_blob() {
        // A second client stores a fresh encryption of the same chunk over
        // the blocks of the holders `replaced` names, so a reader meets
        // blocks of two encryptions: only blocks of one decode to the hash.
        for replaced in [&[0][..], &[1], &[2], &[0, 1], &[1, 2], &[0, 2]] {
            let (sims, again) = (sim_clouds(4), sim_clouds(4));
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            let data: Vec<u8> = (0..3_000u32).map(|i| (i * 13) as u8).collect();
            let hash = write_bare(&client(as_stores(&sims)), &mut c, &data);
            let second = DepSkyClient::new(as_stores(&again), DepSkyConfig::scfs_default(), 7);
            write_bare(&second.unwrap(), &mut c, &data);
            let unit = DepSkyClient::blob_unit("chunks", &hash);
            for &cloud in replaced {
                let key = DepSkyClient::block_key(&unit, 1, cloud);
                let fresh = again[cloud].get(&mut c, &key).unwrap();
                assert_ne!(fresh, sims[cloud].get(&mut c, &key).unwrap());
                sims[cloud].put(&mut c, &key, &fresh).unwrap();
            }
            let read = cold_bare_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash);
            assert_eq!(read, Ok(data), "{replaced:?}");
        }
    }

    #[test]
    fn two_corrupted_holders_fail_a_bare_read_transiently() {
        // Past f: one honest block is left, and no two decode to the hash.
        let sims = sim_clouds(4);
        let mut clock = Clock::new();
        let hash = write_bare(
            &client(as_stores(&sims)),
            &mut ctx(&mut clock),
            &[5u8; 4096],
        );
        sims[0].set_fault_plan(FaultPlan::always_byzantine(), 1);
        sims[2].set_fault_plan(FaultPlan::always_byzantine(), 2);
        let err = cold_bare_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash).unwrap_err();
        assert_eq!(
            err,
            StorageError::QuorumNotReached {
                needed: 2,
                obtained: 1
            }
        );
        assert!(err.is_transient());
    }

    proptest! {
        /// What a Byzantine holder may serve in place of a bare blob's
        /// block: it with a hostile `u64` planted at `at`, a byte flipped
        /// there, or cut short there — on one holder (masked) or on two
        /// (past `f`: a transient error). Never other bytes, never a panic.
        #[test]
        fn prop_hostile_bare_blocks_never_read_as_other_bytes(
            len in 0usize..2_000,
            at in 0usize..4_096,
            how in 0usize..7,
            two in any::<bool>(),
        ) {
            let sims = sim_clouds(4);
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let hash = write_bare(&client(as_stores(&sims)), &mut c, &data);
            let unit = DepSkyClient::blob_unit("chunks", &hash);
            let damaged: &[usize] = if two { &[0, 2] } else { &[1] };
            for &cloud in damaged {
                let key = DepSkyClient::block_key(&unit, 1, cloud);
                let mut block = sims[cloud].get(&mut c, &key).unwrap();
                let at = at % block.len();
                match how {
                    5 => block[at] ^= 0xA5,
                    6 => block.truncate(at),
                    _ => {
                        let hostile = [u64::MAX, u64::MAX - 7, 1 << 63, 1 << 32, 13][how];
                        let end = (at + 8).min(block.len());
                        block[at..end].copy_from_slice(&hostile.to_le_bytes()[..end - at]);
                    }
                }
                sims[cloud].put(&mut c, &key, &block).unwrap();
            }
            match cold_bare_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash) {
                Ok(read) => prop_assert_eq!(read, data),
                Err(e) => prop_assert!(two && e.is_transient(), "{e:?}"),
            }
        }
    }

    // ---- hostile bytes: what a Byzantine cloud may hand the decoders ----

    #[test]
    fn a_block_with_a_short_nonce_or_a_tail_is_rejected() {
        let valid = encode_block(1, 2, &[9; 12], 99, &[3; 33], &[4; 50]);
        assert_eq!(decode_block(&valid).unwrap().size, 99);
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2).put_bytes(&[9; 11]).put_u64(99);
        w.put_bytes(&[3; 33]).put_bytes(&[4; 50]);
        assert!(decode_block(&w.finish()).is_err(), "11-byte nonce");
        let mut tailed = valid;
        tailed.push(0);
        assert!(decode_block(&tailed).is_err(), "trailing byte");
    }

    proptest! {
        /// [`crate::wire::assert_fails_closed`] over blocks of any share and
        /// shard length and any plaintext length.
        #[test]
        fn prop_damaged_blocks_fail_closed(
            size in any::<u64>(),
            share in proptest::collection::vec(any::<u8>(), 0..40),
            shard in proptest::collection::vec(any::<u8>(), 0..120),
            tail in proptest::collection::vec(any::<u8>(), 1..24),
            flip in 1u8..=255,
        ) {
            let valid = encode_block(2, 3, &[7; 12], size, &share, &shard);
            crate::wire::assert_fails_closed(&valid, &tail, flip, 13, |bytes| {
                let b = decode_block(bytes).ok()?;
                Some(encode_block(b.slot, b.share_index, &b.nonce, b.size, &b.share_data, &b.shard))
            });
        }
    }

    // ---- placement-aware clients over the heterogeneous matrix ----

    use placement::PolicyKind;

    /// Past the eventual-consistency visibility windows of the archive and
    /// flaky tiers — SCFS's consistency-anchor loop retries across that gap;
    /// a raw DepSky read must simply start after it.
    const SETTLED: SimDuration = SimDuration::from_secs(3_600);

    fn matrix_clouds(seed: u64) -> (Vec<Arc<SimulatedCloud>>, Arc<ProviderMatrix>) {
        let profiles = ProviderSet::heterogeneous_matrix();
        let matrix = Arc::new(ProviderMatrix::new(profiles.clone()));
        let sims = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| Arc::new(SimulatedCloud::new(p, seed.wrapping_add(i as u64))))
            .collect();
        (sims, matrix)
    }

    fn placed_client(
        sims: &[Arc<SimulatedCloud>],
        matrix: Arc<ProviderMatrix>,
        kind: PolicyKind,
        seed: u64,
    ) -> DepSkyClient {
        let spec = PlacementSpec {
            matrix,
            policy: kind.build(),
            width: 3,
            write_wait: 2,
        };
        DepSkyClient::with_placement(as_stores(sims), DepSkyConfig::scfs_default(), spec, seed)
            .unwrap()
    }

    #[test]
    fn placed_clients_round_trip_under_every_policy() {
        let kinds = [
            PolicyKind::AllClouds,
            PolicyKind::CheapestQuorum { slo_millis: 2_500 },
            PolicyKind::FastestRead,
        ];
        for kind in kinds {
            let (sims, matrix) = matrix_clouds(11);
            let ds = placed_client(&sims, matrix.clone(), kind, 42);
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            let data = vec![0xABu8; 9_000];
            let hash = write(&ds, &mut c, &data);
            c.clock.advance(SimDuration::from_secs(60));
            assert_eq!(
                ds.read_blob(&mut c, "f", &hash).unwrap(),
                data,
                "{}",
                kind.label()
            );
            // A fresh client with no metadata cache resolves the placement
            // from the encoded metadata alone.
            let reader = placed_client(&sims, matrix, kind, 43);
            assert_eq!(
                cold_read(&reader, SETTLED, &hash).unwrap(),
                data,
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn cheapest_quorum_writes_record_their_placement() {
        let (sims, matrix) = matrix_clouds(7);
        let ds = placed_client(
            &sims,
            matrix,
            PolicyKind::CheapestQuorum { slo_millis: 2_500 },
            1,
        );
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let hash = write(&ds, &mut c, &vec![5u8; 4096]);
        let unit = DepSkyClient::blob_unit("f", &hash);
        let md = ds.known_metadata(&mut c, &unit).unwrap();
        let info = md.latest().unwrap();
        // The matrix puts the premium tier at index 0, so the cheapest
        // quorum never includes it.
        assert_eq!(info.slots.len(), 3);
        assert!(!info.holder_clouds().contains(&0));
        // Exactly the holders store a block for this version.
        for (cloud, sim) in sims.iter().enumerate() {
            let holds = info.slot_for_cloud(cloud).is_some();
            let key = DepSkyClient::block_key(&unit, 1, info.slot_for_cloud(cloud).unwrap_or(0));
            let mut probe_clock = Clock::new();
            probe_clock.advance(SETTLED);
            let mut pc = ctx(&mut probe_clock);
            assert_eq!(sim.get(&mut pc, &key).is_ok(), holds, "cloud {cloud}");
        }
    }

    #[test]
    fn placed_reads_escalate_past_a_holder_outage() {
        let (sims, matrix) = matrix_clouds(23);
        let ds = placed_client(&sims, matrix.clone(), PolicyKind::FastestRead, 9);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = vec![0x5Au8; 6_000];
        let hash = write(&ds, &mut c, &data);
        let unit = DepSkyClient::blob_unit("f", &hash);
        let md = ds.known_metadata(&mut c, &unit).unwrap();
        let holders = md.latest().unwrap().holder_clouds();

        // Knock out the holder FastestRead would race first (the healthiest
        // one); the first wave falls short and the read must widen to the
        // remaining holders instead of failing.
        let spec = &ds.placement;
        let first = spec
            .policy
            .read_order(&spec.matrix, &holders, 2, Bytes::new(1))[0];
        sims[first].set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
            3,
        );

        let reader = placed_client(&sims, matrix, PolicyKind::FastestRead, 10);
        assert_eq!(cold_read(&reader, SETTLED, &hash).unwrap(), data);
    }

    proptest! {
        // ISSUE 9 satellite: FastestRead escalation never loses
        // read-your-writes under injected provider outages. Any single cloud
        // of the pool — holder or not, including the slow archive and the
        // flaky regional store — may go dark after the write; the 2-of-3
        // erasure geometry plus wave widening must still reconstruct.
        #[test]
        fn prop_fastest_read_survives_any_single_outage(choice in 0u64..(7 * 64)) {
            // One integer encodes (faulted cloud, payload variant) — the
            // proptest shim has no tuple strategies.
            let faulted = (choice % 7) as usize;
            let variant = choice / 7;
            let (sims, matrix) = matrix_clouds(variant);
            let ds = placed_client(&sims, matrix.clone(), PolicyKind::FastestRead, variant);
            let mut clock = Clock::new();
            let data = vec![(variant % 251) as u8; 512 + (variant as usize) * 37];
            let hash = write(&ds, &mut ctx(&mut clock), &data);

            sims[faulted].set_fault_plan(
                FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
                variant,
            );

            let reader = placed_client(&sims, matrix, PolicyKind::FastestRead, variant + 1);
            prop_assert_eq!(cold_read(&reader, SETTLED, &hash).unwrap(), data);
        }
    }
}
