//! The DepSky single-writer register over a cloud-of-clouds.
//!
//! [`DepSkyClient`] implements the DepSky-CA write and read protocols
//! (paper §3.2, Figure 6) plus the extension SCFS required: reading the
//! version with a given content hash, so the consistency anchor in the
//! coordination service — not the eventually-consistent clouds — decides
//! which version a reader observes.

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
use sim_core::time::SimInstant;
use sim_core::units::Bytes;

use crate::config::{DepSkyConfig, Protocol};
use crate::metadata::{DataUnitMetadata, VersionInfo};
use crate::quorum::{advance_to_nth_success, parallel_access, CloudOutcome};
use crate::wire::{Reader, Writer};

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

/// Receipt returned by a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReceipt {
    /// Version number assigned to the write.
    pub version: u64,
    /// SHA-256 of the written plaintext (what SCFS stores in its consistency
    /// anchor).
    pub hash: ContentHash,
    /// Plaintext size in bytes.
    pub size: u64,
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

/// The DepSky client: a single-writer multi-reader register per data unit.
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

    /// The configuration of this client.
    pub fn config(&self) -> &DepSkyConfig {
        &self.config
    }

    /// The clouds backing this client.
    pub fn clouds(&self) -> &[Arc<dyn ObjectStore>] {
        &self.clouds
    }

    /// The placement specification, if this client is placement-aware.
    pub fn placement(&self) -> Option<&PlacementSpec> {
        self.placement.as_ref()
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
    fn record_outcomes<T>(&self, start: SimInstant, outcomes: &[CloudOutcome<T>]) {
        if let Some(spec) = &self.placement {
            for o in outcomes {
                spec.matrix.record(
                    o.cloud_index,
                    o.completed_at.duration_since(start),
                    o.is_ok(),
                );
            }
        }
    }

    fn metadata_key(name: &str) -> String {
        format!("depsky/{name}/metadata")
    }

    fn block_key(name: &str, version: u64, slot: usize) -> String {
        format!("depsky/{name}/v{version}/block{slot}")
    }

    /// Writes a new version of the data unit `name`, reading the current
    /// metadata from the clouds first if it is not cached locally.
    pub fn write(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        data: &[u8],
    ) -> Result<WriteReceipt, StorageError> {
        let metadata = self
            .find_metadata(ctx, name)?
            .unwrap_or_else(|| DataUnitMetadata::new(name));
        self.write_with_metadata(
            ctx,
            name,
            data,
            sha256(data),
            metadata,
            CommitOrder::DataThenMetadata,
        )
    }

    /// Writes the *first* version of a data unit known to be new, skipping
    /// the metadata read phase (SCFS uses this on file creation).
    pub fn write_new(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        data: &[u8],
    ) -> Result<WriteReceipt, StorageError> {
        let metadata = self
            .cached_metadata(name)
            .unwrap_or_else(|| DataUnitMetadata::new(name));
        self.write_with_metadata(
            ctx,
            name,
            data,
            sha256(data),
            metadata,
            CommitOrder::DataThenMetadata,
        )
    }

    fn cached_metadata(&self, name: &str) -> Option<DataUnitMetadata> {
        self.metadata_cache.lock().get(name).cloned()
    }

    /// The unit's metadata from the cache or, failing that, a quorum read;
    /// `None` when no cloud returns a record.
    fn find_metadata(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
    ) -> Result<Option<DataUnitMetadata>, StorageError> {
        if let Some(md) = self.cached_metadata(name) {
            return Ok(Some(md));
        }
        match self.read_metadata(ctx, name) {
            Ok(md) => Ok(Some(md)),
            Err(StorageError::NotFound { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes `data`, whose SHA-256 the caller has computed as `hash`, as the
    /// next version of the unit `metadata` describes.
    fn write_with_metadata(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        data: &[u8],
        hash: ContentHash,
        mut metadata: DataUnitMetadata,
        order: CommitOrder,
    ) -> Result<WriteReceipt, StorageError> {
        let version = metadata.next_version();
        let data_clouds = self.block_width();
        let data_shards = self.config.data_shards();

        // Prepare the per-cloud block payloads.
        let (key, nonce) = {
            let mut kg = self.keygen.lock();
            (kg.next_key(), kg.next_nonce())
        };
        let payloads: Vec<Vec<u8>> = match self.config.protocol {
            Protocol::ConfidentialAvailable => {
                let cipher = ChaCha20::new(&key, &nonce);
                let ciphertext = cipher.encrypt(data);
                let shards = self.coder.encode(&ciphertext);
                let shares = {
                    let mut kg = self.keygen.lock();
                    split_secret(&key, data_shards, data_clouds, move || {
                        (kg.next_key()[0]) ^ (kg.next_nonce()[0])
                    })
                    .map_err(|e| StorageError::invalid(e.to_string()))?
                };
                shards
                    .into_iter()
                    .take(data_clouds)
                    .zip(shares)
                    .enumerate()
                    .map(|(slot, (shard, share))| {
                        encode_block(slot as u8, share.index, &nonce, &share.data, &shard)
                    })
                    .collect()
            }
            Protocol::Available => (0..data_clouds)
                .map(|slot| encode_block(slot as u8, 0, &nonce, &[], data))
                .collect(),
        };
        let block_size = payloads.first().map_or(0, |p| p.len() as u64);
        let block_hashes: Vec<ContentHash> = payloads.iter().map(|p| sha256(p)).collect();

        // Phase 1: store the data blocks in parallel on the clouds the
        // placement policy picks (the first `width` clouds when fixed).
        let targets: Vec<usize> = match &self.placement {
            Some(spec) => spec.policy.write_targets(
                &spec.matrix,
                spec.width,
                spec.write_wait,
                Bytes::new(block_size),
            ),
            None => (0..data_clouds).collect(),
        };
        let start = ctx.clock.now();
        let blocks = parallel_access(ctx, &self.clouds, &targets, |cloud_index, cloud, c| {
            // Block slot `i` lives on cloud `targets[i]`.
            let slot = targets
                .iter()
                .position(|&t| t == cloud_index)
                .unwrap_or(cloud_index);
            cloud.put(c, &Self::block_key(name, version, slot), &payloads[slot])
        });
        self.record_outcomes(start, &blocks);
        let needed = match &self.placement {
            Some(spec) => spec.write_wait,
            None if self.config.preferred_quorum => data_clouds,
            None => self.config.write_quorum(),
        };
        if order == CommitOrder::DataThenMetadata {
            await_quorum(ctx, &blocks, needed)?;
        }

        // Phase 2: update and store the metadata object in every cloud. The
        // caller's clock only moves at a quorum wait, so an unordered commit
        // issues this round from the same instant as the block round.
        let identity: Vec<usize> = (0..data_clouds).collect();
        let placements: Vec<u32> = if targets == identity {
            Vec::new()
        } else {
            targets.iter().map(|&c| c as u32).collect()
        };
        metadata.push_version(VersionInfo {
            version,
            hash,
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
            cloud.put(c, &Self::metadata_key(name), &encoded_md)
        });
        self.record_outcomes(start, &records);
        // Both rounds are in flight: wait out both quorums (the clock ends at
        // the later instant; an ordered commit is already past the first)
        // before reporting a failure of either.
        let data_quorum = await_quorum(ctx, &blocks, needed);
        let metadata_quorum = await_quorum(ctx, &records, self.metadata_quorum());
        data_quorum.and(metadata_quorum)?;

        self.metadata_cache
            .lock()
            .insert(name.to_string(), metadata);
        Ok(WriteReceipt {
            version,
            hash,
            size: data.len() as u64,
        })
    }

    /// Base name of the global, cross-file chunk namespace: SCFS stores
    /// every chunk as a `chunks|{hash}` data unit, shared by all files and
    /// users, while chunk-map manifests keep per-object `{id}|{hash}` units.
    /// Object ids never collide with this base (they are `{user}-f{n}`).
    pub const GLOBAL_CHUNK_BASE: &str = "chunks";

    /// Name of the single-version data unit holding an immutable,
    /// content-addressed blob (an SCFS chunk or chunk-map manifest): the
    /// base object id joined with the blob's content hash.
    pub fn blob_unit(base: &str, hash: &ContentHash) -> String {
        format!("{base}|{}", scfs_crypto::to_hex(hash))
    }

    /// Name of the data unit holding a chunk of the global namespace.
    pub fn chunk_unit(hash: &ContentHash) -> String {
        Self::blob_unit(Self::GLOBAL_CHUNK_BASE, hash)
    }

    /// Stores an immutable blob addressed by `base|hash` through the full
    /// DepSky-CA pipeline (encrypt, erasure-code, secret-share). Writing the
    /// same blob twice is idempotent in content; callers are expected to
    /// skip blobs they know are already stored.
    ///
    /// The per-cloud block PUTs and the metadata-record PUTs go out in one
    /// round, and the call returns at the later of the two quorum instants.
    /// This is the storage half of SCFS's commit invariant:
    /// content-addressed objects are unordered among themselves, and only the
    /// anchor update that publishes their hash is ordered after all of them —
    /// so no reader can look for this unit before the call has returned, and
    /// a failed call leaves at most a half-written unit that
    /// [`DepSkyClient::delete_blob`] reclaims.
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
        // Blobs are write-once: the unit is known to be new, so the
        // metadata-read phase is skipped, exactly like file creation.
        let name = Self::blob_unit(base, hash);
        let metadata = self
            .cached_metadata(&name)
            .unwrap_or_else(|| DataUnitMetadata::new(&name));
        // The address was just verified against the content: it is the
        // version's plaintext hash, and is not computed a second time.
        self.write_with_metadata(ctx, &name, data, *hash, metadata, CommitOrder::Unordered)?;
        Ok(())
    }

    /// Reads back the immutable blob addressed by `base|hash`, verifying its
    /// content hash.
    pub fn read_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        self.read_by_hash(ctx, &Self::blob_unit(base, hash), hash)
    }

    /// Deletes the immutable blob addressed by `base|hash` from all clouds.
    /// A unit with no readable metadata record may still hold blocks (a
    /// [`DepSkyClient::write_blob`] whose data quorum landed but whose
    /// metadata quorum did not), so in that case the keys its only version
    /// can have used — every `v1/block{slot}` — are deleted on every cloud.
    pub fn delete_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<(), StorageError> {
        let name = Self::blob_unit(base, hash);
        let md = match self.find_metadata(ctx, &name)? {
            Some(md) => md,
            None => {
                let all: Vec<usize> = (0..self.clouds.len()).collect();
                let width = self.block_width();
                let outcomes = parallel_access(ctx, &self.clouds, &all, |_, cloud, c| {
                    for slot in 0..width {
                        // Best-effort like every unit delete: most of these
                        // keys never existed.
                        let _ = cloud.delete(c, &Self::block_key(&name, 1, slot));
                    }
                    Ok(())
                });
                crate::quorum::advance_to_all(ctx, &outcomes);
                DataUnitMetadata::new(&name)
            }
        };
        self.delete_unit(ctx, &name, &md)
    }

    /// Propagates an ACL to the blob addressed by `base|hash`.
    pub fn set_blob_acl(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        acl: &Acl,
    ) -> Result<(), StorageError> {
        self.set_acl(ctx, &Self::blob_unit(base, hash), acl)
    }

    /// Reads the data-unit metadata from the clouds (quorum read).
    pub fn read_metadata(
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
            if let Ok(bytes) = &outcome.result {
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

    /// Reads the latest version of the data unit.
    pub fn read_latest(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
    ) -> Result<(Vec<u8>, VersionInfo), StorageError> {
        let md = self.read_metadata(ctx, name)?;
        // Try versions from newest to oldest: a Byzantine cloud may have
        // advertised a version whose blocks cannot be verified.
        for info in md.versions.iter().rev() {
            match self.read_version(ctx, name, info) {
                Ok(data) => return Ok((data, info.clone())),
                Err(e) if e.is_transient() => continue,
                Err(e) => return Err(e),
            }
        }
        Err(StorageError::not_found(name))
    }

    /// Reads the version whose plaintext hash is `hash` — the operation SCFS
    /// added to DepSky to implement consistency anchors.
    pub fn read_by_hash(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        // Prefer cached metadata if it already knows this hash; otherwise do
        // a quorum metadata read (the version may not be visible yet, in
        // which case the caller retries — the consistency-anchor loop).
        let cached = self
            .cached_metadata(name)
            .filter(|md| md.find_by_hash(hash).is_some());
        let md = match cached {
            Some(md) => md,
            None => self.read_metadata(ctx, name)?,
        };
        let info = md
            .find_by_hash(hash)
            .ok_or_else(|| {
                StorageError::not_found(format!("{name}@{}", scfs_crypto::to_hex(hash)))
            })?
            .clone();
        self.read_version(ctx, name, &info)
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
            if let Ok(bytes) = &outcome.result {
                let expected = info
                    .slot_for_cloud(outcome.cloud_index)
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
        let needed = match self.config.protocol {
            Protocol::ConfidentialAvailable => self.config.data_shards(),
            Protocol::Available => 1,
        };
        let holders: Vec<usize> = info
            .holder_clouds()
            .into_iter()
            .filter(|&c| c < self.clouds.len())
            .collect();
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

        let plaintext = match self.config.protocol {
            Protocol::Available => valid[0].shard.clone(),
            Protocol::ConfidentialAvailable => {
                // Reassemble the ciphertext from the erasure-coded shards.
                let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.coder.total_shards()];
                for block in &valid {
                    if (block.slot as usize) < shards.len() {
                        shards[block.slot as usize] = Some(block.shard.clone());
                    }
                }
                let ciphertext = self
                    .coder
                    .decode(&shards, info.size as usize)
                    .map_err(|e| StorageError::invalid(e.to_string()))?;
                // Recover the key from the secret shares and decrypt.
                let shares: Vec<Share> = valid
                    .iter()
                    .map(|b| Share {
                        index: b.share_index,
                        data: b.share_data.clone(),
                    })
                    .collect();
                let key_bytes = combine_shares(&shares, self.config.data_shards())
                    .map_err(|e| StorageError::invalid(e.to_string()))?;
                let mut key = [0u8; 32];
                if key_bytes.len() != 32 {
                    return Err(StorageError::IntegrityViolation {
                        key: name.to_string(),
                    });
                }
                key.copy_from_slice(&key_bytes);
                let cipher = ChaCha20::new(&key, &valid[0].nonce);
                cipher.decrypt(&ciphertext)
            }
        };

        if sha256(&plaintext) != info.hash {
            return Err(StorageError::IntegrityViolation {
                key: name.to_string(),
            });
        }
        Ok(plaintext)
    }

    /// Deletes every version except the newest `keep`, updating the metadata
    /// object; returns the number of versions removed. Used by the SCFS
    /// garbage collector.
    pub fn delete_old_versions(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        keep: usize,
    ) -> Result<usize, StorageError> {
        let mut md = match self.cached_metadata(name) {
            Some(md) => md,
            None => self.read_metadata(ctx, name)?,
        };
        let removed = md.prune_old_versions(keep);
        if removed.is_empty() {
            return Ok(0);
        }
        for info in &removed {
            let holders: Vec<usize> = info
                .holder_clouds()
                .into_iter()
                .filter(|&c| c < self.clouds.len())
                .collect();
            let outcomes = parallel_access(ctx, &self.clouds, &holders, |cloud_index, cloud, c| {
                let slot = info.slot_for_cloud(cloud_index).unwrap_or(cloud_index);
                cloud.delete(c, &Self::block_key(name, info.version, slot))
            });
            // Deletions are best-effort; advance past the slowest attempt.
            crate::quorum::advance_to_all(ctx, &outcomes);
        }
        let encoded = md.encode();
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        let outcomes = parallel_access(ctx, &self.clouds, &all, |_, cloud, c| {
            cloud.put(c, &Self::metadata_key(name), &encoded)
        });
        await_quorum(ctx, &outcomes, self.metadata_quorum())?;
        self.metadata_cache.lock().insert(name.to_string(), md);
        Ok(removed.len())
    }

    /// Deletes the whole data unit (all versions and the metadata object).
    pub fn delete_all(&self, ctx: &mut OpCtx<'_>, name: &str) -> Result<(), StorageError> {
        let md = self
            .find_metadata(ctx, name)?
            .unwrap_or_else(|| DataUnitMetadata::new(name));
        self.delete_unit(ctx, name, &md)
    }

    /// Deletes the blocks of every version `md` records, then the metadata
    /// object, from all clouds.
    fn delete_unit(
        &self,
        ctx: &mut OpCtx<'_>,
        name: &str,
        md: &DataUnitMetadata,
    ) -> Result<(), StorageError> {
        for info in &md.versions {
            let holders: Vec<usize> = info
                .holder_clouds()
                .into_iter()
                .filter(|&c| c < self.clouds.len())
                .collect();
            let outcomes = parallel_access(ctx, &self.clouds, &holders, |cloud_index, cloud, c| {
                let slot = info.slot_for_cloud(cloud_index).unwrap_or(cloud_index);
                cloud.delete(c, &Self::block_key(name, info.version, slot))
            });
            crate::quorum::advance_to_all(ctx, &outcomes);
        }
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        let key = Self::metadata_key(name);
        let outcomes =
            parallel_access(ctx, &self.clouds, &all, |_, cloud, c| cloud.delete(c, &key));
        crate::quorum::advance_to_all(ctx, &outcomes);
        self.metadata_cache.lock().remove(name);
        Ok(())
    }

    /// Propagates an ACL change to the metadata and all block objects in all
    /// clouds (the cloud-level half of SCFS `setfacl`, paper §2.6).
    pub fn set_acl(&self, ctx: &mut OpCtx<'_>, name: &str, acl: &Acl) -> Result<(), StorageError> {
        let md = match self.cached_metadata(name) {
            Some(md) => md,
            None => self.read_metadata(ctx, name)?,
        };
        let all: Vec<usize> = (0..self.clouds.len()).collect();
        let md_key = Self::metadata_key(name);
        let outcomes = parallel_access(ctx, &self.clouds, &all, |cloud_index, cloud, c| {
            cloud.set_acl(c, &md_key, acl.clone()).or(Ok(()))?;
            // Each cloud also updates the ACL of the blocks it holds.
            for info in &md.versions {
                if let Some(slot) = info.slot_for_cloud(cloud_index) {
                    let _ =
                        cloud.set_acl(c, &Self::block_key(name, info.version, slot), acl.clone());
                }
            }
            Ok(())
        });
        await_quorum(ctx, &outcomes, self.metadata_quorum())
    }
}

/// How a write orders its two rounds of cloud requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommitOrder {
    /// The metadata round starts once the data quorum is in: a mutable unit's
    /// `read_latest` readers must never find a record naming absent blocks.
    DataThenMetadata,
    /// Both rounds start at the same instant: a write-once unit is named only
    /// by a hash its writer publishes after the whole write returned.
    Unordered,
}

/// Waits for `needed` successful outcomes: advances the caller's clock to the
/// instant the quorum formed, or to the last completion and fails.
fn await_quorum<T>(
    ctx: &mut OpCtx<'_>,
    outcomes: &[CloudOutcome<T>],
    needed: usize,
) -> Result<(), StorageError> {
    if advance_to_nth_success(ctx, outcomes, needed) {
        Ok(())
    } else {
        Err(StorageError::QuorumNotReached {
            needed,
            obtained: outcomes.iter().filter(|o| o.is_ok()).count(),
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

fn decode_block(bytes: &[u8]) -> Result<BlockPayload, StorageError> {
    let mut r = Reader::new(bytes);
    let mut parse = || -> Result<BlockPayload, crate::wire::DecodeError> {
        let slot = r.get_u8()?;
        let share_index = r.get_u8()?;
        let nonce_bytes = r.get_bytes()?;
        let mut nonce = [0u8; 12];
        if nonce_bytes.len() == 12 {
            nonce.copy_from_slice(&nonce_bytes);
        }
        let share_data = r.get_bytes()?;
        let shard = r.get_bytes()?;
        Ok(BlockPayload {
            slot,
            share_index,
            nonce,
            share_data,
            shard,
        })
    };
    parse().map_err(|e| StorageError::invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::providers::{ProviderProfile, ProviderSet};
    use cloud_store::sim_cloud::SimulatedCloud;
    use proptest::prelude::*;
    use sim_core::fault::FaultPlan;
    use sim_core::latency::LatencyModel;
    use sim_core::time::{Clock, SimInstant};

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

    #[test]
    fn write_then_read_latest_round_trips() {
        let ds = client(test_clouds(4));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = b"the contents of a shared document".to_vec();
        let receipt = ds.write_new(&mut c, "files/doc", &data).unwrap();
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.hash, sha256(&data));
        let (read, info) = ds.read_latest(&mut c, "files/doc").unwrap();
        assert_eq!(read, data);
        assert_eq!(info.version, 1);
    }

    #[test]
    fn read_by_hash_returns_the_right_version() {
        let ds = client(test_clouds(4));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let v1 = b"version one".to_vec();
        let v2 = b"version two, longer".to_vec();
        let r1 = ds.write_new(&mut c, "f", &v1).unwrap();
        let r2 = ds.write(&mut c, "f", &v2).unwrap();
        assert_eq!(r2.version, 2);
        assert_eq!(ds.read_by_hash(&mut c, "f", &r1.hash).unwrap(), v1);
        assert_eq!(ds.read_by_hash(&mut c, "f", &r2.hash).unwrap(), v2);
        let missing = sha256(b"never written");
        assert!(ds.read_by_hash(&mut c, "f", &missing).is_err());
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
        let mut c = ctx(&mut clock);
        let data = vec![7u8; 4096];
        let receipt = ds.write_new(&mut c, "f", &data).unwrap();

        // Cloud 0 turns Byzantine after the write and corrupts everything it
        // returns; the quorum read must mask it.
        sims[0].set_fault_plan(FaultPlan::always_byzantine(), 99);

        // A fresh client (no metadata cache) must still read the data.
        let reader = client(as_stores(&sims));
        let mut clock_b = Clock::new();
        let mut cb = ctx(&mut clock_b);
        assert_eq!(
            reader.read_by_hash(&mut cb, "f", &receipt.hash).unwrap(),
            data
        );
    }

    #[test]
    fn data_survives_one_unavailable_cloud() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = vec![3u8; 1000];
        let receipt = ds.write_new(&mut c, "f", &data).unwrap();

        sims[1].set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
            5,
        );

        let reader = client(as_stores(&sims));
        let mut clock_b = Clock::new();
        let mut cb = ctx(&mut clock_b);
        assert_eq!(
            reader.read_by_hash(&mut cb, "f", &receipt.hash).unwrap(),
            data
        );
    }

    #[test]
    fn no_single_cloud_stores_the_plaintext() {
        let clouds = test_clouds(4);
        let ds = client(clouds.clone());
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let secret = b"TOP-SECRET corporate budget 2014".to_vec();
        ds.write_new(&mut c, "budget", &secret).unwrap();
        // Inspect every object in every cloud: none of them may contain the
        // plaintext (confidentiality against a curious provider).
        for cloud in &clouds {
            let mut clk = Clock::new();
            let mut cc = OpCtx::new(&mut clk, "alice".into());
            for key in cloud.list(&mut cc, "depsky/").unwrap() {
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
        let mut c = ctx(&mut clock);
        let data = vec![0u8; 1_000_000];
        ds.write_new(&mut c, "big", &data).unwrap();
        let stored: u64 = sims.iter().map(|cl| cl.stored_bytes().get()).sum();
        let overhead = stored as f64 / data.len() as f64;
        assert!(
            (1.4..1.7).contains(&overhead),
            "storage overhead was {overhead}"
        );
    }

    fn constant_latency_clouds(latencies_ms: &[f64]) -> Vec<Arc<dyn ObjectStore>> {
        latencies_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| {
                let mut p = ProviderProfile::instantaneous(&format!("c{i}"));
                p.latency.request = LatencyModel::constant_ms(*ms);
                Arc::new(SimulatedCloud::new(p, i as u64)) as Arc<dyn ObjectStore>
            })
            .collect()
    }

    #[test]
    fn write_blob_overlaps_the_rounds_a_mutable_write_orders() {
        let ds = client(constant_latency_clouds(&[100.0; 4]));
        let data = vec![7u8; 512];
        let mut clock = Clock::new();
        ds.write_new(&mut ctx(&mut clock), "unit", &data).unwrap();
        assert_eq!(
            clock.now(),
            SimInstant::from_millis(200),
            "data round, then metadata round"
        );
        let mut clock = Clock::new();
        ds.write_blob(&mut ctx(&mut clock), "blob", &sha256(&data), &data)
            .unwrap();
        assert_eq!(
            clock.now(),
            SimInstant::from_millis(100),
            "both rounds in flight together"
        );
    }

    #[test]
    fn quorum_write_latency_hides_the_slowest_cloud() {
        // Four clouds with very different latencies; with preferred_quorum
        // disabled the write waits for 3 of 4, so the 5-second cloud is off
        // the critical path.
        let clouds = constant_latency_clouds(&[100.0, 200.0, 300.0, 5_000.0]);
        let config = DepSkyConfig {
            preferred_quorum: false,
            ..DepSkyConfig::scfs_default()
        };
        let ds = DepSkyClient::new(clouds, config, 1).unwrap();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        ds.write_new(&mut c, "f", b"x").unwrap();
        // Two phases, each bounded by the third-slowest cloud (300 ms).
        let elapsed = clock.now().as_millis_f64();
        assert!(elapsed < 1_000.0, "write took {elapsed} ms");
    }

    #[test]
    fn garbage_collection_removes_old_versions() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        for i in 0..5u8 {
            ds.write(&mut c, "f", &[i; 100]).unwrap();
        }
        let before: u64 = sims.iter().map(|cl| cl.stored_bytes().get()).sum();
        let removed = ds.delete_old_versions(&mut c, "f", 2).unwrap();
        assert_eq!(removed, 3);
        let after: u64 = sims.iter().map(|cl| cl.stored_bytes().get()).sum();
        assert!(after < before);
        // The remaining versions are still readable.
        assert!(ds.read_latest(&mut c, "f").is_ok());
        // Running the GC again removes nothing.
        assert_eq!(ds.delete_old_versions(&mut c, "f", 2).unwrap(), 0);
    }

    #[test]
    fn delete_all_removes_the_data_unit() {
        let clouds = test_clouds(4);
        let ds = client(clouds.clone());
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        ds.write_new(&mut c, "f", b"data").unwrap();
        ds.delete_all(&mut c, "f").unwrap();
        let reader = client(clouds);
        let mut clock_b = Clock::new();
        let mut cb = ctx(&mut clock_b);
        assert!(reader.read_latest(&mut cb, "f").is_err());
    }

    #[test]
    fn replication_protocol_also_round_trips() {
        let config = DepSkyConfig {
            f: 1,
            protocol: Protocol::Available,
            preferred_quorum: false,
        };
        let ds = DepSkyClient::new(test_clouds(4), config, 7).unwrap();
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = b"plain replication".to_vec();
        let r = ds.write_new(&mut c, "f", &data).unwrap();
        assert_eq!(ds.read_by_hash(&mut c, "f", &r.hash).unwrap(), data);
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
        let reader = client(ds.clouds().to_vec());
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
        // plaintext hash; `write_new` hashes the data itself. On one key
        // stream the two must store byte-identical metadata records of the
        // unit, and the receipt must carry the same hash.
        let data: Vec<u8> = (0..40_000u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let hash = sha256(&data);
        let unit = DepSkyClient::blob_unit("file-1", &hash);
        let stored_metadata = |as_blob: bool| {
            let clouds = sim_clouds(4);
            let ds = client(as_stores(&clouds));
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            if as_blob {
                ds.write_blob(&mut c, "file-1", &hash, &data).unwrap();
            } else {
                let receipt = ds.write_new(&mut c, &unit, &data).unwrap();
                assert_eq!((receipt.hash, receipt.size), (hash, data.len() as u64));
            }
            let md = ds.read_metadata(&mut c, &unit).unwrap();
            assert_eq!(md.versions.len(), 1);
            assert_eq!(md.versions[0].hash, hash);
            assert_eq!(ds.read_by_hash(&mut c, &unit, &hash).unwrap(), data);
            md.encode()
        };
        assert_eq!(stored_metadata(true), stored_metadata(false));
    }

    #[test]
    fn blob_units_embed_base_and_hash() {
        let hash = sha256(b"x");
        let unit = DepSkyClient::blob_unit("alice-f1", &hash);
        assert!(unit.starts_with("alice-f1|"));
        assert!(unit.ends_with(&scfs_crypto::to_hex(&hash)));
    }

    #[test]
    fn chunk_units_live_in_the_global_namespace() {
        let hash = sha256(b"chunk");
        let unit = DepSkyClient::chunk_unit(&hash);
        assert_eq!(
            unit,
            format!("chunks|{}", scfs_crypto::to_hex(&hash)),
            "global chunks are addressed by hash alone, not per object id"
        );
    }

    #[test]
    fn acl_propagation_lets_another_account_read() {
        use cloud_store::types::Permission;
        let clouds = test_clouds(4);
        let ds = client(clouds.clone());
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = b"shared doc".to_vec();
        let receipt = ds.write_new(&mut c, "shared/doc", &data).unwrap();

        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        ds.set_acl(&mut c, "shared/doc", &acl).unwrap();

        // Bob, with his own client and account, can now read the file.
        let bob = client(clouds);
        let mut clock_b = Clock::new();
        clock_b.advance(sim_core::time::SimDuration::from_secs(5));
        let mut cb = OpCtx::new(&mut clock_b, "bob".into());
        assert_eq!(
            bob.read_by_hash(&mut cb, "shared/doc", &receipt.hash)
                .unwrap(),
            data
        );
    }

    // ---- placement-aware clients over the heterogeneous matrix ----

    use placement::{PolicyKind, ProviderMatrix};

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
            let receipt = ds.write_new(&mut c, "f", &data).unwrap();
            // Let the eventual-consistency windows of the archive and flaky
            // tiers lapse — SCFS's consistency-anchor loop retries across
            // this gap; a raw DepSky read must simply wait it out.
            c.clock.advance(sim_core::time::SimDuration::from_secs(60));
            let (read, info) = ds.read_latest(&mut c, "f").unwrap();
            assert_eq!(read, data, "{}", kind.label());
            assert_eq!(info.version, 1);
            // A fresh client with no metadata cache resolves the placement
            // from the encoded metadata alone. Its clock starts well past
            // the eventual-consistency visibility windows of the archive
            // and flaky tiers.
            let reader = placed_client(&sims, matrix, kind, 43);
            let mut clock_b = Clock::new();
            clock_b.advance(sim_core::time::SimDuration::from_secs(3_600));
            let mut cb = ctx(&mut clock_b);
            assert_eq!(
                reader.read_by_hash(&mut cb, "f", &receipt.hash).unwrap(),
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
        ds.write_new(&mut c, "f", &vec![5u8; 4096]).unwrap();
        let md = ds.read_metadata(&mut c, "f").unwrap();
        let info = md.latest().unwrap();
        // The matrix puts the premium tier at index 0, so the cheapest
        // quorum is never the identity and the placement must be explicit.
        assert_eq!(info.placements.len(), 3);
        assert!(!info.holder_clouds().contains(&0));
        // Exactly the holders store a block for this version.
        for (cloud, sim) in sims.iter().enumerate() {
            let holds = info.slot_for_cloud(cloud).is_some();
            let key = DepSkyClient::block_key("f", 1, info.slot_for_cloud(cloud).unwrap_or(0));
            let mut probe_clock = Clock::new();
            probe_clock.advance(sim_core::time::SimDuration::from_secs(3_600));
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
        let receipt = ds.write_new(&mut c, "f", &data).unwrap();
        let md = ds.read_metadata(&mut c, "f").unwrap();
        let holders = md.latest().unwrap().holder_clouds();

        // Knock out the holder FastestRead would race first (the healthiest
        // one); the first wave falls short and the read must widen to the
        // remaining holders instead of failing.
        let spec = ds.placement().unwrap();
        let first = spec
            .policy
            .read_order(&spec.matrix, &holders, 2, Bytes::new(1))[0];
        sims[first].set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
            3,
        );

        let reader = placed_client(&sims, matrix, PolicyKind::FastestRead, 10);
        let mut clock_b = Clock::new();
        clock_b.advance(sim_core::time::SimDuration::from_secs(3_600));
        let mut cb = ctx(&mut clock_b);
        assert_eq!(
            reader.read_by_hash(&mut cb, "f", &receipt.hash).unwrap(),
            data
        );
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
            let mut c = ctx(&mut clock);
            let data = vec![(variant % 251) as u8; 512 + (variant as usize) * 37];
            let receipt = ds.write_new(&mut c, "f", &data).unwrap();

            sims[faulted].set_fault_plan(
                FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
                variant,
            );

            let reader = placed_client(&sims, matrix, PolicyKind::FastestRead, variant + 1);
            let mut clock_b = Clock::new();
            clock_b.advance(sim_core::time::SimDuration::from_secs(3_600));
            let mut cb = ctx(&mut clock_b);
            let read = reader.read_by_hash(&mut cb, "f", &receipt.hash).unwrap();
            prop_assert_eq!(read, data);
        }
    }
}
