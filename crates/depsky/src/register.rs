//! The DepSky write-once blob store over a cloud-of-clouds.
//!
//! [`DepSkyClient`] runs the DepSky-CA write and read protocols (paper §3.2,
//! Figure 6) over the only kind of data unit SCFS stores: an immutable blob
//! named by its content hash. The paper's extension — *read the version with
//! this hash*, so the consistency anchor in the coordination service and not
//! the eventually-consistent clouds decides what a reader observes — is what
//! [`DepSkyClient::read_blob`] does; the hash is in the unit's name.
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
use placement::{PlacementPolicy, ProviderMatrix};
use scfs_crypto::{
    combine_shares, sha256, split_secret, ChaCha20, ContentHash, ErasureCoder, KeyGenerator, Share,
};
use sim_core::parallel::{join_all, join_nth, run_forked, ForkedRun};
use sim_core::time::SimInstant;
use sim_core::units::Bytes;

use crate::config::DepSkyConfig;
use crate::metadata::{DataUnitMetadata, VersionInfo};
use crate::wire::{DecodeError, Reader, Writer};

/// Prefix of every key a DepSky client stores in a cloud.
pub const KEY_SPACE: &str = "depsky/";

/// How a placement-aware client selects clouds: the shared provider matrix
/// (whose health every observed outcome feeds), the policy ranking it, and
/// the write geometry.
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
    /// are off the critical path).
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
    share_data: Vec<u8>,
    shard: Vec<u8>,
}

/// The DepSky client: one write-once, content-addressed data unit per blob.
pub struct DepSkyClient {
    clouds: Vec<Arc<dyn ObjectStore>>,
    config: DepSkyConfig,
    coder: ErasureCoder,
    keygen: Mutex<KeyGenerator>,
    metadata_cache: Mutex<BTreeMap<String, DataUnitMetadata>>,
    /// `None` runs the paper's fixed placement over exactly `total_clouds()`
    /// clouds — byte-identical to the pre-placement client. `Some` lets a
    /// policy choose which clouds of a (possibly larger) pool serve each
    /// operation.
    placement: Option<PlacementSpec>,
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
    /// Creates a client over `clouds` (which must match the configuration's
    /// required cloud count).
    pub fn new(
        clouds: Vec<Arc<dyn ObjectStore>>,
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
        let data_shards = config.data_shards();
        let parity = config.data_clouds() - data_shards;
        let coder = ErasureCoder::new(data_shards, parity)
            .map_err(|e| StorageError::invalid(e.to_string()))?;
        Ok(DepSkyClient {
            clouds,
            config,
            coder,
            keygen: Mutex::new(KeyGenerator::from_seed(seed)),
            metadata_cache: Mutex::new(BTreeMap::new()),
            placement: None,
        })
    }

    /// Creates a placement-aware client over a cloud pool that may be larger
    /// than the protocol's `n`: `spec.width` clouds (chosen per write by
    /// `spec.policy`) hold each version's blocks, metadata goes to every
    /// cloud with majority acknowledgement, and reads race a policy-chosen
    /// subset with escalation to the remaining holders.
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
            placement: Some(spec),
        })
    }

    /// Number of clouds holding data blocks for each written version.
    fn block_width(&self) -> usize {
        self.placement
            .as_ref()
            .map_or(self.config.data_clouds(), |s| s.width)
    }

    /// Acknowledgements a metadata write (or read) waits for. The fixed
    /// deployment uses the protocol's `n − f`; a placement-aware pool uses a
    /// majority of the pool, so any two metadata quorums intersect.
    fn metadata_quorum(&self) -> usize {
        if self.placement.is_some() {
            self.clouds.len() / 2 + 1
        } else {
            self.config.write_quorum()
        }
    }

    /// Feeds observed outcomes into the provider matrix's health state (a
    /// no-op for fixed-placement clients).
    fn record_outcomes<T>(&self, start: SimInstant, outcomes: &[CloudRun<T>]) {
        if let Some(spec) = &self.placement {
            for o in outcomes {
                spec.matrix.record(
                    o.index,
                    o.completed_at.duration_since(start),
                    o.value.is_ok(),
                );
            }
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

    fn cached_metadata(&self, name: &str) -> Option<DataUnitMetadata> {
        self.metadata_cache.lock().get(name).cloned()
    }

    /// The unit's metadata from the cache or, failing that, a quorum read.
    fn known_metadata(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
    ) -> Result<DataUnitMetadata, StorageError> {
        match self.cached_metadata(name) {
            Some(md) => Ok(md),
            None => self.read_metadata(ctx, name),
        }
    }

    /// The clouds of this pool that hold a block of `info`.
    fn holders(&self, info: &VersionInfo) -> Vec<usize> {
        let holders = info.holder_clouds().into_iter();
        holders.filter(|&c| c < self.clouds.len()).collect()
    }

    /// Stores an immutable blob addressed by `base|hash` through the full
    /// DepSky-CA pipeline (encrypt, erasure-code, secret-share). Writing the
    /// same blob twice is idempotent in content; callers are expected to
    /// skip blobs they know are already stored. A repeated write appends a
    /// version record and stores its blocks under the next `v{n}/`: a reader
    /// still holding the earlier record keeps finding the blocks of the
    /// encryption that record describes.
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
        if &sha256(data) != hash {
            return Err(StorageError::invalid(format!(
                "blob content does not match its address {}",
                scfs_crypto::to_hex(hash)
            )));
        }
        let name = Self::blob_unit(base, hash);
        let mut metadata = self
            .cached_metadata(&name)
            .unwrap_or_else(|| DataUnitMetadata::new(&name));
        let version = metadata.next_version();
        let data_clouds = self.block_width();
        let data_shards = self.config.data_shards();

        // Prepare the per-cloud block payloads: a fresh key encrypts the
        // blob, the ciphertext is erasure-coded and the key secret-shared.
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
        let payloads: Vec<Vec<u8>> = shards
            .into_iter()
            .take(data_clouds)
            .zip(shares)
            .enumerate()
            .map(|(slot, (shard, share))| {
                encode_block(slot as u8, share.index, &nonce, &share.data, &shard)
            })
            .collect();
        let block_size = payloads.first().map_or(0, |p| p.len() as u64);
        let block_hashes: Vec<ContentHash> = payloads.iter().map(|p| sha256(p)).collect();

        // Store the data blocks in parallel on the clouds the placement
        // policy picks (the first `n − f` clouds when fixed: the paper's
        // preferred quorum, all of which must acknowledge).
        let (targets, needed): (Vec<usize>, usize) = match &self.placement {
            Some(spec) => (
                spec.policy.write_targets(
                    &spec.matrix,
                    spec.width,
                    spec.write_wait,
                    Bytes::new(block_size),
                ),
                spec.write_wait,
            ),
            None => ((0..data_clouds).collect(), data_clouds),
        };
        let start = ctx.clock.now();
        let blocks = parallel_access(ctx, &self.clouds, &targets, |cloud_index, cloud, c| {
            // Block slot `i` lives on cloud `targets[i]`.
            let slot = targets
                .iter()
                .position(|&t| t == cloud_index)
                .unwrap_or(cloud_index);
            cloud.put(c, &Self::block_key(&name, version, slot), &payloads[slot])
        });
        self.record_outcomes(start, &blocks);

        // Update and store the metadata object in every cloud. The caller's
        // clock only moves at a quorum wait, so this round is issued from
        // the same instant as the block round.
        let identity: Vec<usize> = (0..data_clouds).collect();
        let placements: Vec<u32> = if targets == identity {
            Vec::new()
        } else {
            targets.iter().map(|&c| c as u32).collect()
        };
        metadata.push_version(VersionInfo {
            version,
            // The address was just verified against the content: it is the
            // version's plaintext hash, and is not computed a second time.
            hash: *hash,
            size: data.len() as u64,
            block_size,
            data_clouds: data_clouds as u32,
            block_hashes,
            placements,
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
        let data_quorum = await_quorum(ctx, &blocks, needed);
        let metadata_quorum = await_quorum(ctx, &records, self.metadata_quorum());
        data_quorum.and(metadata_quorum)?;

        self.metadata_cache.lock().insert(name, metadata);
        Ok(())
    }

    /// Reads back the immutable blob addressed by `base|hash` — the version
    /// of its unit whose plaintext hash is `hash`, the operation SCFS added
    /// to DepSky to implement consistency anchors — verifying every block
    /// against the unit's metadata and the plaintext against `hash`.
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
        let cached = self
            .cached_metadata(&name)
            .filter(|md| md.find_by_hash(hash).is_some());
        let md = match cached {
            Some(md) => md,
            None => self.read_metadata(ctx, &name)?,
        };
        let info = md
            .find_by_hash(hash)
            .ok_or_else(|| StorageError::not_found(&name))?;
        self.read_version(ctx, &name, info)
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
                    let holders = self.holders(info);
                    let outcomes =
                        parallel_access(ctx, &self.clouds, &holders, |cloud_index, cloud, c| {
                            let slot = info.slot_for_cloud(cloud_index).unwrap_or(cloud_index);
                            cloud.delete(c, &Self::block_key(name, info.version, slot))
                        });
                    join_all(ctx.clock, outcomes.iter().map(|o| o.completed_at));
                }
            }
            Err(StorageError::NotFound { .. }) => {
                let width = self.block_width();
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

    /// Reads the data-unit metadata from the clouds (quorum read).
    fn read_metadata(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
    ) -> Result<DataUnitMetadata, StorageError> {
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
        let mut best: Option<DataUnitMetadata> = None;
        for outcome in &outcomes {
            if let Ok(bytes) = &outcome.value {
                if let Ok(md) = DataUnitMetadata::decode(bytes) {
                    let better = match &best {
                        None => true,
                        Some(b) => md.versions.len() > b.versions.len(),
                    };
                    if better {
                        best = Some(md);
                    }
                }
            }
        }
        match best {
            Some(md) => {
                self.metadata_cache
                    .lock()
                    .insert(name.to_string(), md.clone());
                Ok(md)
            }
            None => Err(StorageError::not_found(key)),
        }
    }

    /// Issues block GETs against one wave of holder clouds, folding hash-
    /// valid blocks into `valid` until `needed` are gathered. Returns the
    /// instant the quorum was reached (if it was) and the last completion.
    fn fetch_block_wave(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        info: &VersionInfo,
        wave: &[usize],
        needed: usize,
        valid: &mut Vec<BlockPayload>,
    ) -> (Option<SimInstant>, Option<SimInstant>) {
        if wave.is_empty() {
            return (None, None);
        }
        let start = ctx.clock.now();
        let outcomes = parallel_access(ctx, &self.clouds, wave, |cloud_index, cloud, c| {
            let slot = info.slot_for_cloud(cloud_index).unwrap_or(cloud_index);
            cloud.get(c, &Self::block_key(name, info.version, slot))
        });
        self.record_outcomes(start, &outcomes);
        // Walk the outcomes in completion order, keeping only blocks whose
        // hash matches the metadata, until enough valid blocks are gathered.
        let mut reached_at = None;
        for outcome in &outcomes {
            if let Ok(bytes) = &outcome.value {
                let expected = info
                    .slot_for_cloud(outcome.index)
                    .and_then(|slot| info.block_hashes.get(slot));
                if expected.is_some_and(|h| h == &sha256(bytes)) {
                    if let Ok(block) = decode_block(bytes) {
                        valid.push(block);
                        if valid.len() >= needed {
                            reached_at = Some(outcome.completed_at);
                            break;
                        }
                    }
                }
            }
        }
        (reached_at, outcomes.last().map(|o| o.completed_at))
    }

    /// Fetches and reconstructs one specific version.
    fn read_version(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        info: &VersionInfo,
    ) -> Result<Vec<u8>, StorageError> {
        let needed = self.config.data_shards();
        let holders = self.holders(info);
        // Fixed placement races every holder at once (the paper's read). A
        // placement-aware read races only the policy's first `needed` picks
        // and widens to the remaining holders on a miss or failure.
        let order: Vec<usize> = match &self.placement {
            Some(spec) => {
                spec.policy
                    .read_order(&spec.matrix, &holders, needed, Bytes::new(info.block_size))
            }
            None => holders,
        };
        let wave_len = if self.placement.is_some() {
            needed.min(order.len())
        } else {
            order.len()
        };
        let (primary, fallback) = order.split_at(wave_len);

        let mut valid: Vec<BlockPayload> = Vec::new();
        let (mut reached_at, mut last) =
            self.fetch_block_wave(ctx, name, info, primary, needed, &mut valid);
        if reached_at.is_none() && !fallback.is_empty() {
            // The primary wave fell short: escalate to the rest of the
            // holders. The widening can only start once the first wave has
            // fully resolved, so the escalation pays its latency.
            if let Some(at) = last {
                ctx.clock.advance_to(at);
            }
            let (escalated, escalated_last) =
                self.fetch_block_wave(ctx, name, info, fallback, needed, &mut valid);
            reached_at = escalated;
            last = escalated_last.or(last);
        }
        match reached_at {
            Some(at) => {
                ctx.clock.advance_to(at);
            }
            None => {
                if let Some(at) = last {
                    ctx.clock.advance_to(at);
                }
                return Err(StorageError::QuorumNotReached {
                    needed,
                    obtained: valid.len(),
                });
            }
        }

        // Reassemble the ciphertext from the erasure-coded shards, each moved
        // out of the block it arrived in.
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.coder.total_shards()];
        for block in &mut valid {
            if let Some(slot) = shards.get_mut(block.slot as usize) {
                *slot = Some(std::mem::take(&mut block.shard));
            }
        }
        let mut plaintext = self
            .coder
            .decode(&shards, info.size as usize)
            .map_err(|e| StorageError::invalid(e.to_string()))?;
        // Recover the key from the secret shares and decrypt in place.
        let shares: Vec<Share> = valid
            .iter()
            .map(|b| Share {
                index: b.share_index,
                data: b.share_data.clone(),
            })
            .collect();
        let key_bytes =
            combine_shares(&shares, needed).map_err(|e| StorageError::invalid(e.to_string()))?;
        let key: [u8; 32] = key_bytes
            .try_into()
            .map_err(|_| StorageError::IntegrityViolation {
                key: name.to_string(),
            })?;
        ChaCha20::new(&key, &valid[0].nonce).apply_keystream(1, &mut plaintext);

        if sha256(&plaintext) != info.hash {
            return Err(StorageError::IntegrityViolation {
                key: name.to_string(),
            });
        }
        Ok(plaintext)
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

fn encode_block(
    slot: u8,
    share_index: u8,
    nonce: &[u8; 12],
    share: &[u8],
    shard: &[u8],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(slot)
        .put_u8(share_index)
        .put_bytes(nonce)
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
        let md = cold.read_metadata(&mut c, &unit).unwrap();
        let versions: Vec<u64> = md.versions.iter().map(|v| v.version).collect();
        assert_eq!(versions, [1, 2], "a re-write appends, it does not replace");
        assert_ne!(md.versions[0].block_hashes, md.versions[1].block_hashes);
        assert_eq!(md.find_by_hash(&hash).unwrap().version, 2);
        assert_eq!(cold.read_blob(&mut c, "f", &hash).unwrap(), data);
        let missing = sha256(b"never written");
        assert!(writer.read_blob(&mut c, "f", &missing).is_err());
    }

    #[test]
    fn wrong_cloud_count_is_rejected() {
        let err = DepSkyClient::new(test_clouds(3), DepSkyConfig::scfs_default(), 1).unwrap_err();
        assert!(matches!(err, StorageError::InvalidRequest { .. }));
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

    /// A fixed-placement client over clouds of the given constant latencies.
    fn client_with_latencies(latencies_ms: [f64; 4]) -> DepSkyClient {
        let clouds = latencies_ms.iter().enumerate().map(|(i, ms)| {
            let mut p = ProviderProfile::instantaneous(&format!("c{i}"));
            p.latency.request = LatencyModel::constant_ms(*ms);
            Arc::new(SimulatedCloud::new(p, i as u64)) as Arc<dyn ObjectStore>
        });
        client(clouds.collect())
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
            .read_metadata(&mut c, &unit)
            .unwrap();
        assert_eq!(md.versions.len(), 1);
        assert_eq!(md.versions[0].hash, sha256(&data));
        assert_eq!(md.versions[0].size, data.len() as u64);
        assert_eq!(Some(md), ds.cached_metadata(&unit));
    }

    #[test]
    fn stored_bytes_do_not_depend_on_the_kernel_that_wrote_them() {
        // Every byte a fixed-seed write leaves in the clouds, pinned to the
        // digest the scalar-only kernels of ab8a71c produced: a reader of old
        // data cannot tell which SHA-256, ChaCha20 or GF(256) code wrote it.
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
        for cloud in &clouds {
            let mut keys = cloud.list(&mut c, KEY_SPACE).unwrap();
            keys.sort();
            for key in keys {
                stored.update(key.as_bytes());
                stored.update(&cloud.get(&mut c, &key).unwrap());
            }
        }
        assert_eq!(
            scfs_crypto::to_hex(&stored.finalize()),
            "c111b82efd563771266d74999e3da574a5b58759c8b8712a85a6e3f271229851"
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

    // ---- hostile bytes: what a Byzantine cloud may hand the decoders ----

    #[test]
    fn a_block_with_a_short_nonce_or_a_tail_is_rejected() {
        let valid = encode_block(1, 2, &[9; 12], &[3; 33], &[4; 50]);
        assert!(decode_block(&valid).is_ok());
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2).put_bytes(&[9; 11]);
        w.put_bytes(&[3; 33]).put_bytes(&[4; 50]);
        assert!(decode_block(&w.finish()).is_err(), "11-byte nonce");
        let mut tailed = valid;
        tailed.push(0);
        assert!(decode_block(&tailed).is_err(), "trailing byte");
    }

    proptest! {
        /// [`crate::wire::assert_fails_closed`] over blocks of any share and
        /// shard length.
        #[test]
        fn prop_damaged_blocks_fail_closed(
            share in proptest::collection::vec(any::<u8>(), 0..40),
            shard in proptest::collection::vec(any::<u8>(), 0..120),
            tail in proptest::collection::vec(any::<u8>(), 1..24),
            flip in 1u8..=255,
        ) {
            let valid = encode_block(2, 3, &[7; 12], &share, &shard);
            crate::wire::assert_fails_closed(&valid, &tail, flip, 13, |bytes| {
                let b = decode_block(bytes).ok()?;
                Some(encode_block(b.slot, b.share_index, &b.nonce, &b.share_data, &b.shard))
            });
        }
    }

    // ---- placement-aware clients over the heterogeneous matrix ----

    use placement::{PolicyKind, ProviderMatrix};

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
        let md = ds.read_metadata(&mut c, &unit).unwrap();
        let info = md.latest().unwrap();
        // The matrix puts the premium tier at index 0, so the cheapest
        // quorum is never the identity and the placement must be explicit.
        assert_eq!(info.placements.len(), 3);
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
        let md = ds.read_metadata(&mut c, &unit).unwrap();
        let holders = md.latest().unwrap().holder_clouds();

        // Knock out the holder FastestRead would race first (the healthiest
        // one); the first wave falls short and the read must widen to the
        // remaining holders instead of failing.
        let spec = ds.placement.as_ref().unwrap();
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
