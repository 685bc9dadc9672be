//! The DepSky write-once blob store over a cloud-of-clouds.
//!
//! [`DepSkyClient`] runs the DepSky-CA write and read protocols (paper §3.2,
//! Figure 6) over the only kind of data unit SCFS stores: an immutable blob
//! named by its content hash. The paper's extension — *read the version with
//! this hash*, so the consistency anchor in the coordination service and not
//! the eventually-consistent clouds decides what a reader observes — is what
//! [`DepSkyClient::read_blob`] does; the hash is in the unit's name.
//!
//! A blob is its blocks and nothing else: no metadata record is stored. The
//! paper's record tells a reader which version has a hash and where its
//! blocks are. Here the anchored hash names the unit, the pool's layout names
//! its holders, and each block carries its slot, key share, nonce and
//! plaintext length; a read checks the plaintext it decodes against the hash.
//!
//! The layout is fixed per pool. When a client is built, its policy picks the
//! `width` holders (slot `i` on the `i`-th) from the clouds' advertised
//! profiles alone, so every client of a pool picks the same ones whatever
//! health it has observed. A write stores `width` blocks; a read needs
//! `f + 1` of them, so it races the first `f + 1` holders in the policy's
//! read order, which follows live health, and widens to the rest only on a
//! miss. In the paper's layout ([`DepSkyClient::new`]) the holders are the
//! `n − f` clouds advertising the lowest request latency, and the read races
//! the two fastest of them.
//!
//! This module owns how a blob is spelled in a cloud, both ways: a blob
//! `(base, hash)` is the unit [`DepSkyClient::blob_unit`] names, a unit's
//! blocks live under [`KEY_SPACE`], and [`DepSkyClient::blob_of_key`] reads
//! the `(base, hash)` back off any of them.

use std::ops::Range;
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
    /// The policy choosing the pool's holders and each read's order.
    pub policy: Arc<dyn PlacementPolicy>,
    /// Number of clouds holding each blob's blocks (the paper's `n − f`
    /// under preferred quorums).
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

/// One decoded block object fetched from a cloud. It keeps the GET reply it
/// was decoded from, and its shard is where it lies in that reply.
#[derive(Debug, Clone)]
struct BlockPayload {
    slot: u8,
    share_index: u8,
    nonce: [u8; 12],
    /// Length of the plaintext the blob decodes to.
    size: u64,
    share_data: Vec<u8>,
    /// The GET reply, whole.
    reply: Vec<u8>,
    /// Where the shard lies in `reply`.
    shard_at: Range<usize>,
}

impl BlockPayload {
    fn shard(&self) -> &[u8] {
        &self.reply[self.shard_at.clone()]
    }
}

/// The DepSky client: one write-once, content-addressed data unit per blob.
pub struct DepSkyClient {
    clouds: Vec<Arc<dyn ObjectStore>>,
    config: DepSkyConfig,
    coder: ErasureCoder,
    keygen: Mutex<KeyGenerator>,
    /// The shared matrix and read policy, and the write geometry.
    placement: PlacementSpec,
    /// The pool's layout: block slot `i` of every blob on cloud `holders[i]`.
    holders: Vec<usize>,
}

impl std::fmt::Debug for DepSkyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepSkyClient")
            .field("clouds", &self.clouds.len())
            .field("config", &self.config)
            .field("holders", &self.holders)
            .finish()
    }
}

impl DepSkyClient {
    /// Creates a client over exactly the configuration's `n` clouds in the
    /// paper's layout (§3.2, preferred quorums): the `n − f` fastest clouds
    /// hold every blob's blocks, and a write waits for all of them.
    ///
    /// "Fastest" is each profile's advertised mean request latency. The pool
    /// is sorted by it, stably, and the [`AllClouds`] spec is built over
    /// that order, so slot `i` lives on the `i`-th fastest cloud and the
    /// cloud left without blocks is the slowest. Equal profiles keep pool
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
        let spec = PlacementSpec {
            matrix: Arc::new(advertised(&clouds)),
            policy: Arc::new(AllClouds),
            width: config.data_clouds(),
            write_wait: config.data_clouds(),
        };
        Self::with_placement(clouds, config, spec, seed)
    }

    /// Creates a client over a cloud pool that may be larger than the
    /// protocol's `n`. `spec.policy` picks the pool's `spec.width` holders
    /// once, here: from a fresh matrix of the clouds' advertised profiles,
    /// with no health and no block size (what every write pays: request
    /// latency and request price), so every client of the pool picks the
    /// same ones. A write waits for `spec.write_wait` of them; a read races
    /// the first `f + 1` holders in the policy's order over `spec.matrix`,
    /// widening to the rest on a miss or failure. The pool keeps the
    /// caller's order.
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
        let advertised = advertised(&clouds);
        let holders =
            spec.policy
                .write_targets(&advertised, spec.width, spec.write_wait, Bytes::ZERO);
        Ok(DepSkyClient {
            clouds,
            config,
            coder,
            keygen: Mutex::new(KeyGenerator::from_seed(seed)),
            placement: spec,
            holders,
        })
    }

    /// Feeds the outcomes of one round, indexed by slot, into the provider
    /// matrix's health state of each slot's holder.
    fn record_outcomes<T>(&self, start: SimInstant, outcomes: &[CloudRun<T>]) {
        let matrix = &self.placement.matrix;
        for o in outcomes {
            let latency = o.completed_at.duration_since(start);
            matrix.record(self.holders[o.index], latency, o.value.is_ok());
        }
    }

    fn block_key(name: &str, slot: usize) -> String {
        format!("{KEY_SPACE}{name}/v1/block{slot}")
    }

    /// Name of the data unit holding the immutable, content-addressed blob
    /// `(base, hash)`: the base joined with the hash in hex. SCFS stores
    /// chunks under one shared base and each object's manifests under the
    /// object's id; `base` must not contain `/`.
    pub fn blob_unit(base: &str, hash: &ContentHash) -> String {
        format!("{base}|{}", scfs_crypto::to_hex(hash))
    }

    /// The `(base, hash)` of the blob a stored cloud key belongs to — the
    /// inverse of [`DepSkyClient::blob_unit`] under any of its block keys.
    /// `None` for a key that is not one this client could have written for a
    /// blob.
    pub fn blob_of_key(key: &str) -> Option<(&str, ContentHash)> {
        let unit = key.strip_prefix(KEY_SPACE)?.split('/').next()?;
        let (base, hex) = unit.rsplit_once('|')?;
        Some((base, scfs_crypto::hash_from_hex(hex)?))
    }

    /// Encrypts `data` under a fresh key, erasure-codes the ciphertext and
    /// secret-shares the key: one encoded block per slot of the placement's
    /// width, slot order. Refuses content that does not hash to its address.
    ///
    /// Each block is allocated once, at its final size, and built in place:
    /// its header and key share, then its shard. A data shard is the
    /// plaintext's bytes, appended encrypted straight from `data`; a parity
    /// shard is coded from those. The bytes are the ones
    /// [`ErasureCoder::encode`] over [`ChaCha20::encrypt`] would give, under
    /// the same key draws.
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
        let shares = {
            let mut kg = self.keygen.lock();
            split_secret(&key, data_shards, data_clouds, move || {
                (kg.next_key()[0]) ^ (kg.next_nonce()[0])
            })
            .map_err(|e| StorageError::invalid(e.to_string()))?
        };
        let cipher = ChaCha20::new(&key, &nonce);
        let shard_len = self.coder.shard_size(data.len()).max(1);
        let blocks = shares.iter().enumerate().map(|(slot, share)| {
            let mut block = block_head(slot as u8, share, &nonce, data.len() as u64, shard_len);
            let head = block.len();
            if slot < data_shards {
                let from = (slot * shard_len).min(data.len());
                let shard = &data[from..(from + shard_len).min(data.len())];
                cipher.extend_with_keystream(from, shard, &mut block);
            }
            block.resize(head + shard_len, 0);
            block
        });
        let mut blocks: Vec<Vec<u8>> = blocks.collect();
        let (data_blocks, parity_blocks) = blocks.split_at_mut(data_shards);
        let shards: Vec<&[u8]> = data_blocks
            .iter()
            .map(|block| &block[block.len() - shard_len..])
            .collect();
        for (p, block) in parity_blocks.iter_mut().enumerate() {
            let head = block.len() - shard_len;
            self.coder.add_parity(p, &shards, &mut block[head..]);
        }
        Ok(blocks)
    }

    /// Issues `op` for each block slot of `slots` of the unit `name` on the
    /// slot's holder, with the slot's key: one round, each request on a fork
    /// of the caller's clock and under the caller's account, answers sorted
    /// by completion and indexed by slot. DepSky proceeds as soon as a
    /// quorum has answered (paper §3.2): the caller's clock does *not* move
    /// here; join what the step needs ([`await_quorum`], `join_all`).
    fn on_holders<T>(
        &self,
        ctx: &OpCtx<'_>,
        name: &str,
        slots: impl IntoIterator<Item = usize>,
        mut op: impl FnMut(&dyn ObjectStore, &mut OpCtx<'_>, &str, usize) -> Result<T, StorageError>,
    ) -> Vec<CloudRun<T>> {
        run_forked(&*ctx.clock, slots, |slot, fork| {
            let cloud = self.clouds[self.holders[slot]].as_ref();
            let mut c = OpCtx::new(fork, ctx.account.clone());
            op(cloud, &mut c, &Self::block_key(name, slot), slot)
        })
    }

    /// Issues `op` on every block of the blob `base|hash` at once, waits out
    /// the slowest holder, and returns each holder's answer in slot order.
    fn on_every_holder(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        mut op: impl FnMut(&dyn ObjectStore, &mut OpCtx<'_>, &str) -> Result<(), StorageError>,
    ) -> Vec<Result<(), StorageError>> {
        let name = Self::blob_unit(base, hash);
        let outcomes = self.on_holders(ctx, &name, 0..self.holders.len(), |cloud, c, key, _| {
            op(cloud, c, key)
        });
        join_all(ctx.clock, outcomes.iter().map(|o| o.completed_at));
        outcomes.into_iter().map(|o| o.value).collect()
    }

    /// Stores the immutable blob `base|hash` through the full DepSky-CA
    /// pipeline (encrypt, erasure-code, secret-share): one round of `width`
    /// block PUTs, slot `i` on the pool's `i`-th holder, returning once
    /// `write_wait` have acknowledged.
    ///
    /// Blobs are write-once, so the protocol's metadata-read phase is
    /// skipped, and nothing is stored beside the blocks. This is the storage
    /// half of SCFS's commit invariant: content-addressed objects are
    /// unordered among themselves, and only the anchor update that publishes
    /// their hash is ordered after all of them — so no reader can look for
    /// this blob before the call has returned, and a failed call leaves at
    /// most some of its blocks, which [`DepSkyClient::delete_blob`] reclaims.
    /// A repeated write stores a fresh encryption over the same keys: a
    /// reader that meets blocks of both decodes no `f + 1` of them to `hash`
    /// unless they are of one ([`DepSkyClient::read_blob`]).
    pub fn write_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        data: &[u8],
    ) -> Result<(), StorageError> {
        let blocks = self.encode_blocks(hash, data)?;
        let name = Self::blob_unit(base, hash);
        let start = ctx.clock.now();
        let outcomes = self.on_holders(ctx, &name, 0..blocks.len(), |cloud, c, key, slot| {
            cloud.put(c, key, &blocks[slot])
        });
        self.record_outcomes(start, &outcomes);
        await_quorum(ctx, &outcomes, self.placement.write_wait)
    }

    /// Reads back the immutable blob `base|hash` — the version with this
    /// hash, the operation SCFS added to DepSky to implement consistency
    /// anchors. One round of block GETs races the first `f + 1` holders in
    /// the policy's read order, exactly the blocks a decode needs, and
    /// widens to the rest once that wave has fully resolved (so a widening
    /// pays its latency). Each block that arrives carrying the slot its
    /// holder holds, with a shard as long as its plaintext length implies
    /// (`DepSkyClient::candidate`), joins the candidates, its GET reply
    /// kept whole; the read returns at the first arrival that
    /// completes `f + 1` of them decoding to `hash`
    /// (`DepSkyClient::open_with_newest`; at most C(3, 2) = 3 decodes at
    /// `f = 1`). A Byzantine holder, or a rewrite that replaced some blocks,
    /// only costs a wave and decodes. If no `f + 1` blocks verify, the clock
    /// ends at the last answer and the read fails with a transient
    /// [`StorageError::QuorumNotReached`], so the anchor loop retries.
    pub fn read_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<Vec<u8>, StorageError> {
        let name = Self::blob_unit(base, hash);
        let needed = self.config.data_shards();
        let spec = &self.placement;
        let order = spec
            .policy
            .read_order(&spec.matrix, &self.holders, needed, Bytes::ZERO);
        let slot_of = |cloud| self.holders.iter().position(|&h| h == cloud);
        let order: Vec<usize> = order.into_iter().filter_map(slot_of).collect();
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
            let wave = wave.iter().copied();
            let outcomes = self.on_holders(ctx, &name, wave, |cloud, c, key, _| cloud.get(c, key));
            self.record_outcomes(start, &outcomes);
            last = outcomes.last().map(|o| o.completed_at).or(last);
            for outcome in outcomes {
                let Ok(reply) = outcome.value else {
                    continue;
                };
                let Some(block) = self.candidate(outcome.index, reply) else {
                    continue;
                };
                arrived.push(block);
                if let Some(plaintext) = self.open_with_newest(&arrived, hash) {
                    ctx.clock.advance_to(outcome.completed_at);
                    return Ok(plaintext);
                }
            }
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

    /// Deletes the blob `base|hash`: one DELETE per holder, waiting out the
    /// slowest. A block that never landed, or that an earlier try deleted,
    /// answers `NotFound`, which is tolerated like `AccessDenied`; any other
    /// holder error fails the call, so the caller retries the whole blob.
    pub fn delete_blob(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
    ) -> Result<(), StorageError> {
        let answers = self.on_every_holder(ctx, base, hash, |cloud, c, key| cloud.delete(c, key));
        let tolerated = |e: &StorageError| {
            matches!(
                e,
                StorageError::NotFound { .. } | StorageError::AccessDenied { .. }
            )
        };
        let mut failed = answers.into_iter().filter_map(Result::err);
        failed.find(|e| !tolerated(e)).map_or(Ok(()), Err)
    }

    /// Propagates an ACL to every block of the blob `base|hash` (the
    /// cloud-level half of SCFS `setfacl`, paper §2.6): one request per
    /// holder, best-effort, waiting out the slowest.
    pub fn set_blob_acl(
        &self,
        ctx: &mut OpCtx<'_>,
        base: &str,
        hash: &ContentHash,
        acl: &Acl,
    ) -> Result<(), StorageError> {
        self.on_every_holder(ctx, base, hash, |cloud, c, key| {
            cloud.set_acl(c, key, acl.clone())
        });
        Ok(())
    }

    /// The block `reply` holds, if it could be slot `slot` of a blob of this
    /// pool: it decodes, carries that slot, and its shard is as long as its
    /// plaintext length implies.
    fn candidate(&self, slot: usize, reply: Vec<u8>) -> Option<BlockPayload> {
        let block = decode_block(reply).ok()?;
        let shard_len = self.coder.shard_size(block.size as usize).max(1);
        (block.slot as usize == slot && block.shard_at.len() == shard_len).then_some(block)
    }

    /// Tries each set of `f + 1` of `blocks` that includes the last one and
    /// whose blocks agree on nonce and plaintext length: the plaintext of the
    /// first that decodes to content hashing to `hash`.
    fn open_with_newest(&self, blocks: &[BlockPayload], hash: &ContentHash) -> Option<Vec<u8>> {
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
    /// `blocks` encode, if they are one encryption: their key shares are
    /// combined, and their shards deciphered. `None` if they do not decode.
    ///
    /// When the pick is the data shards, slots `0..f + 1` (what a fault-free
    /// read on the paper's layout races), the plaintext is their bytes in
    /// slot order: each is appended deciphered straight from its GET reply,
    /// so every byte is written once. A pick that needs parity copies its
    /// shards into the erasure decoder and deciphers the result in place.
    fn open(&self, blocks: &[BlockPayload], pick: &[usize], size: u64) -> Option<Vec<u8>> {
        let shares: Vec<Share> = pick
            .iter()
            .map(|&i| Share {
                index: blocks[i].share_index,
                data: blocks[i].share_data.clone(),
            })
            .collect();
        let key: [u8; 32] = combine_shares(&shares, pick.len()).ok()?.try_into().ok()?;
        let cipher = ChaCha20::new(&key, &blocks[pick[0]].nonce);
        let size = size as usize;
        let mut picked: Vec<&BlockPayload> = pick.iter().map(|&i| &blocks[i]).collect();
        picked.sort_by_key(|block| block.slot);
        let slots = picked.iter().map(|block| block.slot as usize);
        if slots.eq(0..self.coder.data_shards()) {
            let mut plaintext = Vec::with_capacity(size);
            for block in picked {
                let from = plaintext.len();
                let shard = block.shard();
                let shard = &shard[..shard.len().min(size - from)];
                cipher.extend_with_keystream(from, shard, &mut plaintext);
            }
            return Some(plaintext);
        }
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.coder.total_shards()];
        for block in picked {
            if let Some(shard) = shards.get_mut(block.slot as usize) {
                *shard = Some(block.shard().to_vec());
            }
        }
        let mut plaintext = self.coder.decode(&shards, size).ok()?;
        cipher.apply_keystream(1, &mut plaintext);
        Some(plaintext)
    }
}

/// A fresh matrix of the clouds' advertised profiles: no health observed.
fn advertised(clouds: &[Arc<dyn ObjectStore>]) -> ProviderMatrix {
    ProviderMatrix::new(clouds.iter().map(|c| c.profile().clone()).collect())
}

/// One holder's answer to a request issued in parallel with the others:
/// `index` is the block slot it holds.
type CloudRun<T> = ForkedRun<Result<T, StorageError>>;

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

/// The start of the block of `slot` of a blob of `size` bytes: its header
/// and key share, then the length of its `shard_len`-byte shard, in an
/// allocation that the shard fills.
fn block_head(slot: u8, share: &Share, nonce: &[u8; 12], size: u64, shard_len: usize) -> Vec<u8> {
    let mut w =
        Writer::with_capacity(2 + 8 + nonce.len() + 8 + 8 + share.data.len() + 8 + shard_len);
    w.put_u8(slot)
        .put_u8(share.index)
        .put_bytes(nonce)
        .put_u64(size)
        .put_bytes(&share.data)
        .put_u64(shard_len as u64);
    w.finish()
}

/// Decodes the block a GET reply holds, keeping the reply: its shard is
/// where the last field lies in it, not a copy.
fn decode_block(reply: Vec<u8>) -> Result<BlockPayload, DecodeError> {
    let mut r = Reader::new(&reply);
    let slot = r.get_u8()?;
    let share_index = r.get_u8()?;
    let nonce_bytes = r.get_bytes_max(12)?;
    let nonce: [u8; 12] = nonce_bytes.try_into().map_err(|_| DecodeError {
        reason: format!("nonce must be 12 bytes, got {}", nonce_bytes.len()),
    })?;
    let size = r.get_u64()?;
    let share_data = r.get_bytes()?;
    let shard_len = r.get_bytes_max(reply.len())?.len();
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
        shard_at: reply.len() - shard_len..reply.len(),
        reply,
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
    use std::collections::BTreeMap;

    /// A block written field by field, its shard copied in: the reference
    /// the one-pass blocks of `encode_blocks` are checked against.
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

    /// Reads blob `hash` of base `f` on a clock of its own that starts at
    /// `at`.
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

    /// (PUTs, GETs answered or refused, DELETEs) the clouds have seen.
    fn request_counts(sims: &[Arc<SimulatedCloud>]) -> (u64, u64, u64) {
        let snapshots = sims.iter().map(|s| s.metrics().snapshot());
        snapshots.fold((0, 0, 0), |(p, g, d), m| {
            (p + m.puts, g + m.gets + m.errors, d + m.deletes)
        })
    }

    #[test]
    fn read_by_hash_returns_the_right_version() {
        // A rewrite stores a fresh encryption of one content over the same
        // three keys. A reader that read the first one and a cold one both
        // read the content back; a hash never written is not found.
        let sims = sim_clouds(4);
        let writer = client(as_stores(&sims));
        let reader = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = b"one content, written twice".to_vec();
        let hash = write(&writer, &mut c, &data);
        assert_eq!(reader.read_blob(&mut c, "f", &hash).unwrap(), data);
        let unit = DepSkyClient::blob_unit("f", &hash);
        let first = sims[0].get(&mut c, &DepSkyClient::block_key(&unit, 0));
        write(&writer, &mut c, &data);
        let again = sims[0].get(&mut c, &DepSkyClient::block_key(&unit, 0));
        assert_ne!(first.unwrap(), again.unwrap(), "a fresh encryption");

        let keys = sims.iter().flat_map(|s| s.stored_keys(KEY_SPACE));
        assert_eq!(keys.count(), 3, "a re-write replaces, it does not append");
        assert_eq!(reader.read_blob(&mut c, "f", &hash).unwrap(), data);
        let cold = client(as_stores(&sims));
        assert_eq!(cold.read_blob(&mut c, "f", &hash).unwrap(), data);
        let missing = writer.read_blob(&mut c, "f", &sha256(b"never written"));
        assert!(missing.unwrap_err().is_transient());
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
            if let Some(cloud) = down {
                let outage = FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000));
                sims[cloud].set_fault_plan(outage, 2);
            }
            let before = request_counts(&sims).1;
            let read = cold_read(&build(2), SimDuration::ZERO, &hash);
            assert_eq!(read.unwrap(), data, "{wait:?} {down:?}");
            assert_eq!(request_counts(&sims).1 - before, gets, "{wait:?} {down:?}");
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

        // A fresh client, which has read nothing yet, must still read the
        // data.
        let reader = client(as_stores(&sims));
        assert_eq!(cold_read(&reader, SimDuration::ZERO, &hash).unwrap(), data);
    }

    #[test]
    fn a_bare_blob_survives_one_byzantine_holder() {
        // Every blob is what was once a bare blob: its blocks and no record.
        // Whichever holder turns Byzantine after the write, a fresh client
        // reads the data; a raced holder (0 or 1) costs one widening to the
        // third, the third costs nothing.
        for holder in 0..3 {
            let sims = sim_clouds(4);
            let mut clock = Clock::new();
            let data = vec![7u8; 4096];
            let hash = write(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
            sims[holder].set_fault_plan(FaultPlan::always_byzantine(), 99);
            let before = request_counts(&sims).1;
            let reader = client(as_stores(&sims));
            let read = cold_read(&reader, SimDuration::ZERO, &hash);
            assert_eq!(read, Ok(data), "holder {holder}");
            let gets = 2 + u64::from(holder < 2);
            assert_eq!(request_counts(&sims).1 - before, gets, "holder {holder}");
        }
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

    #[test]
    fn quorum_write_latency_hides_the_slowest_cloud() {
        // Blocks go to the three preferred clouds and all must acknowledge.
        // The 5-second cloud holds no block and gets no request.
        let sims = latency_clouds([100.0, 200.0, 300.0, 5_000.0]);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        write(&ds, &mut ctx(&mut clock), b"x");
        assert_eq!(clock.now(), SimInstant::from_millis(300));
        assert_eq!(request_counts(&sims[3..]), (0, 0, 0));
    }

    #[test]
    fn delete_all_removes_the_data_unit() {
        // A blob written twice is still one block per holder, and one
        // delete per holder removes it.
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data = vec![5u8; 300];
        let hash = write(&ds, &mut c, &data);
        write(&ds, &mut c, &data);
        ds.delete_blob(&mut c, "f", &hash).unwrap();
        assert_eq!(request_counts(&sims), (6, 0, 3));
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
    fn stored_bytes_do_not_depend_on_the_kernel_that_wrote_them() {
        // Every byte a fixed-seed write leaves in the clouds: a reader of old
        // data cannot tell which SHA-256, ChaCha20 or GF(256) code wrote it.
        // The digest is the one the scalar kernels alone produce (each
        // detection forced off) for today's format: three blocks, each
        // carrying its blob's plaintext length.
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
                let bytes = cloud.get(&mut c, &key).unwrap();
                stored.update(key.as_bytes());
                stored.update(&bytes);
            }
        }
        assert_eq!(
            scfs_crypto::to_hex(&stored.finalize()),
            "c66ef412f9b4916c0bd6e48370a7ae4dbc7c360a3909ba5ece35b9e6de6b400b"
        );
        assert_eq!(ds.read_blob(&mut c, "f", &hash).unwrap(), data);
    }

    #[test]
    fn one_pass_blocks_are_the_reference_blocks() {
        // The same key draws through the three-copy pipeline (encrypt, code
        // into shards, write each block) on a second client of the same seed.
        for len in [0, 1, 63, 64, 65, 129, (1 << 20) + 17] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + i / 13) as u8).collect();
            let ds = client(test_clouds(4));
            let blocks = ds.encode_blocks(&sha256(&data), &data).unwrap();
            let reference = client(test_clouds(4));
            let (key, nonce) = {
                let mut kg = reference.keygen.lock();
                (kg.next_key(), kg.next_nonce())
            };
            let (k, n) = (reference.config.data_shards(), reference.placement.width);
            let shares = {
                let mut kg = reference.keygen.lock();
                split_secret(&key, k, n, move || {
                    (kg.next_key()[0]) ^ (kg.next_nonce()[0])
                })
                .unwrap()
            };
            let shards = reference
                .coder
                .encode(&ChaCha20::new(&key, &nonce).encrypt(&data));
            assert_eq!(blocks.len(), shards.len());
            for (slot, (shard, share)) in shards.iter().zip(&shares).enumerate() {
                let expected = encode_block(
                    slot as u8,
                    share.index,
                    &nonce,
                    len as u64,
                    &share.data,
                    shard,
                );
                assert!(blocks[slot] == expected, "{len} bytes, slot {slot}");
            }
        }
    }

    #[test]
    fn the_keystream_at_an_offset_is_that_slice_of_the_whole() {
        // What a shard enciphers and deciphers with: a slice of the message
        // extended with the keystream at its offset.
        let cipher = ChaCha20::new(&[7; 32], &[9; 12]);
        let whole = cipher.encrypt(&[0; 200 + 5000]);
        for offset in 0..200 {
            for len in [0, 1, 63, 64, 65, 129, 1100, 5000] {
                let mut keystream = Vec::new();
                cipher.extend_with_keystream(offset, &vec![0; len], &mut keystream);
                assert_eq!(keystream, whole[offset..offset + len], "{len} at {offset}");
            }
        }
    }

    #[test]
    fn blob_units_embed_base_and_hash() {
        let hash = sha256(b"x");
        let hex = scfs_crypto::to_hex(&hash);
        let unit = DepSkyClient::blob_unit("alice-f1", &hash);
        assert_eq!(unit, format!("alice-f1|{hex}"));
        // A block key names the blob, and nothing else under or outside the
        // key space does.
        let key = DepSkyClient::block_key(&unit, 2);
        assert_eq!(key, format!("depsky/alice-f1|{hex}/v1/block2"));
        assert_eq!(DepSkyClient::blob_of_key(&key), Some(("alice-f1", hash)));
        for key in [
            format!("depsky/alice-f1/{hex}/v1/block0"),
            format!("depsky/alice-f1|{}/v1/block0", hex.to_uppercase()),
            format!("depsky/alice-f1|{}/v1/block0", &hex[2..]),
            format!("other/alice-f1|{hex}/v1/block0"),
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

        // ...until the ACL reaches the blob's blocks on every holder.
        let mut acl = Acl::private();
        acl.grant("bob".into(), Permission::Read);
        ds.set_blob_acl(&mut c, "f", &hash, &acl).unwrap();
        assert_eq!(bob.read_blob(&mut cb, "f", &hash).unwrap(), data);
    }

    // ---- a blob is its blocks ----

    #[test]
    fn a_blob_is_one_round_of_blocks_each_way() {
        let sims = sim_clouds(4);
        let ds = client(as_stores(&sims));
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        let hash = write(&ds, &mut c, &data);
        assert_eq!(request_counts(&sims), (3, 0, 0), "three block PUTs");
        let keys: Vec<Vec<String>> = sims.iter().map(|s| s.stored_keys(KEY_SPACE)).collect();
        let unit = DepSkyClient::blob_unit("f", &hash);
        for (cloud, keys) in keys.iter().enumerate() {
            let expected: Vec<String> = (cloud < 3)
                .then(|| DepSkyClient::block_key(&unit, cloud))
                .into_iter()
                .collect();
            assert_eq!(keys, &expected, "slot i on cloud i, and nothing else");
        }

        let read = cold_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash);
        assert_eq!(read, Ok(data));
        assert_eq!(request_counts(&sims), (3, 2, 0), "f + 1 block GETs");
        let mut acl = Acl::private();
        acl.grant("bob".into(), cloud_store::types::Permission::Read);
        ds.set_blob_acl(&mut c, "f", &hash, &acl).unwrap();
        let acls = sims.iter().map(|s| s.metrics().snapshot().acl_updates);
        assert_eq!(acls.collect::<Vec<u64>>(), [1, 1, 1, 0], "one per holder");
        ds.delete_blob(&mut c, "f", &hash).unwrap();
        assert_eq!(request_counts(&sims), (3, 2, 3), "three block DELETEs");
        for sim in &sims {
            assert_eq!(sim.stored_keys(KEY_SPACE), Vec::<String>::new());
        }
        assert!(cold_read(&ds, SimDuration::ZERO, &hash).is_err());
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

    /// The cloud id each block slot of `unit` is stored on.
    fn placement_of(sims: &[Arc<SimulatedCloud>], unit: &str) -> Vec<String> {
        let on = |key: &str| -> Vec<String> {
            let clouds = sims.iter().filter(|s| !s.stored_keys(key).is_empty());
            clouds.map(|s| s.id().to_string()).collect()
        };
        (0..3)
            .flat_map(|slot| on(&DepSkyClient::block_key(unit, slot)))
            .collect()
    }

    #[test]
    fn new_puts_blocks_on_the_three_fastest_clouds() {
        // However the pool is handed over, slot i lands on the i-th fastest
        // paper cloud by advertised request latency: Azure, Rackspace, S3.
        // GCS, the slowest, stores nothing and gets no request.
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let sims = paper_clouds(order);
            let ds = client(as_stores(&sims));
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            let hash = write(&ds, &mut c, &[6u8; 3_000]);
            let unit = DepSkyClient::blob_unit("f", &hash);
            assert_eq!(placement_of(&sims, &unit), ["azure", "rackspace", "s3"]);
            let gcs = sims.iter().find(|s| s.id() == "gcs").unwrap();
            assert_eq!(gcs.stored_keys(""), Vec::<String>::new(), "{order:?}");
            assert_eq!(
                request_counts(std::slice::from_ref(gcs)),
                (0, 0, 0),
                "{order:?}"
            );
        }
        // Equal profiles keep pool order: slot i on the i-th cloud handed
        // over, whichever that is.
        let sims = sim_clouds(4);
        let pool = [2, 0, 3, 1].map(|i| sims[i].clone());
        let mut clock = Clock::new();
        let hash = write(&client(as_stores(&pool)), &mut ctx(&mut clock), b"equal");
        let slots = placement_of(&pool, &DepSkyClient::blob_unit("f", &hash));
        assert_eq!(slots, ["cloud2", "cloud0", "cloud3"]);
    }

    #[test]
    fn a_cold_bare_read_fetches_f_plus_one_blocks_from_the_fastest_holders() {
        // In the paper's layout a fault-free read races Azure and Rackspace
        // and never asks S3, the third holder, or GCS, which holds nothing.
        let sims = paper_clouds([0, 1, 2, 3]);
        let mut clock = Clock::new();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let hash = write(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
        let read = cold_read(&client(as_stores(&sims)), SETTLED, &hash);
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
            let hash = write(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
            assert!(clock.now() <= start, "{what}: the blocks are stored");
            sims[1].set_fault_plan(plan, 4);
            let before = request_counts(&sims).1;
            let mut clock = Clock::new();
            clock.advance_to(start);
            let reader = client(as_stores(&sims));
            let read = reader.read_blob(&mut ctx(&mut clock), "f", &hash);
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
                let hash = write(
                    &client(as_stores(&sims)),
                    &mut ctx(&mut clock),
                    &[5u8; 4096],
                );
                sims[0].set_fault_plan(one.clone(), 1);
                sims[1].set_fault_plan(two.clone(), 2);
                let read = cold_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash);
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
    fn a_rewrite_over_some_holders_still_reads_the_blob() {
        // A second client stores a fresh encryption of the same blob over
        // the blocks of the holders `replaced` names, so a reader meets
        // blocks of two encryptions: only blocks of one decode to the hash.
        for replaced in [&[0][..], &[1], &[2], &[0, 1], &[1, 2], &[0, 2]] {
            let (sims, again) = (sim_clouds(4), sim_clouds(4));
            let mut clock = Clock::new();
            let mut c = ctx(&mut clock);
            let data: Vec<u8> = (0..3_000u32).map(|i| (i * 13) as u8).collect();
            let hash = write(&client(as_stores(&sims)), &mut c, &data);
            let second = DepSkyClient::new(as_stores(&again), DepSkyConfig::scfs_default(), 7);
            write(&second.unwrap(), &mut c, &data);
            let unit = DepSkyClient::blob_unit("f", &hash);
            for &cloud in replaced {
                let key = DepSkyClient::block_key(&unit, cloud);
                let fresh = again[cloud].get(&mut c, &key).unwrap();
                assert_ne!(fresh, sims[cloud].get(&mut c, &key).unwrap());
                sims[cloud].put(&mut c, &key, &fresh).unwrap();
            }
            let read = cold_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash);
            assert_eq!(read, Ok(data), "{replaced:?}");
        }
    }

    #[test]
    fn two_corrupted_holders_fail_a_bare_read_transiently() {
        // Past f: one honest block is left, and no two decode to the hash.
        let sims = sim_clouds(4);
        let mut clock = Clock::new();
        let hash = write(
            &client(as_stores(&sims)),
            &mut ctx(&mut clock),
            &[5u8; 4096],
        );
        sims[0].set_fault_plan(FaultPlan::always_byzantine(), 1);
        sims[2].set_fault_plan(FaultPlan::always_byzantine(), 2);
        let err = cold_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash).unwrap_err();
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
        /// What a Byzantine holder may serve in place of a blob's block: it
        /// with a hostile `u64` planted at `at`, a byte flipped there, or
        /// cut short there — on one holder (masked) or on two (past `f`: a
        /// transient error). Never other bytes, never a panic.
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
            let hash = write(&client(as_stores(&sims)), &mut c, &data);
            let unit = DepSkyClient::blob_unit("f", &hash);
            let damaged: &[usize] = if two { &[0, 2] } else { &[1] };
            for &cloud in damaged {
                let key = DepSkyClient::block_key(&unit, cloud);
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
            match cold_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash) {
                Ok(read) => prop_assert_eq!(read, data),
                Err(e) => prop_assert!(two && e.is_transient(), "{e:?}"),
            }
        }
    }

    // ---- hostile bytes: what a Byzantine cloud may hand the decoder ----

    #[test]
    fn a_block_with_a_short_nonce_or_a_tail_is_rejected() {
        let valid = encode_block(1, 2, &[9; 12], 99, &[3; 33], &[4; 50]);
        assert_eq!(decode_block(valid.clone()).unwrap().size, 99);
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2).put_bytes(&[9; 11]).put_u64(99);
        w.put_bytes(&[3; 33]).put_bytes(&[4; 50]);
        assert!(decode_block(w.finish()).is_err(), "11-byte nonce");
        let mut tailed = valid;
        tailed.push(0);
        assert!(decode_block(tailed).is_err(), "trailing byte");
    }

    #[test]
    fn a_kept_reply_is_checked_as_a_copied_block_was() {
        // A block keeps its reply whole, and its shard is the reply's tail.
        let ds = client(test_clouds(4));
        let valid = encode_block(1, 2, &[9; 12], 99, &[3; 33], &[4; 50]);
        let block = ds.candidate(1, valid.clone()).unwrap();
        assert_eq!(block.shard(), [4; 50]);
        assert!(block.reply == valid, "the reply, not a copy of its parts");
        // What the decoder rejects.
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2).put_bytes(&[9; 11]).put_u64(99);
        w.put_bytes(&[3; 33]).put_bytes(&[4; 50]);
        assert!(decode_block(w.finish()).is_err(), "11-byte nonce");
        let tailed = [&valid[..], &[0]].concat();
        assert!(decode_block(tailed).is_err(), "trailing byte");
        let prefix = valid.len() - 50 - 8;
        for claimed in [51u64, u64::MAX] {
            let mut past = valid.clone();
            past[prefix..prefix + 8].copy_from_slice(&claimed.to_le_bytes());
            assert!(decode_block(past).is_err(), "a {claimed}-byte shard");
        }
        // What the read rejects beside: a shard shorter or longer than 99
        // bytes over f + 1 = 2 imply, or a slot its holder does not hold.
        for shard in [49, 51] {
            let odd = encode_block(1, 2, &[9; 12], 99, &[3; 33], &vec![4; shard]);
            assert!(decode_block(odd.clone()).is_ok(), "{shard}-byte shard");
            assert!(ds.candidate(1, odd).is_none(), "{shard}-byte shard");
        }
        assert!(ds.candidate(0, valid).is_none(), "slot 1 at slot 0");
    }

    #[test]
    fn a_cold_read_with_a_data_holder_down_decodes_through_parity() {
        // Slots 0 and 1 hold the data shards. With either holder down, the
        // read widens to slot 2's parity and decodes from it; sizes cover an
        // empty blob, a shard boundary inside a keystream block and shards
        // longer than the cipher's stage.
        for down in [0, 1] {
            for len in [0, 1, 129, 4097, 300_001] {
                let sims = sim_clouds(4);
                let mut clock = Clock::new();
                let data: Vec<u8> = (0..len).map(|i| (i * 11 + i / 509) as u8).collect();
                let hash = write(&client(as_stores(&sims)), &mut ctx(&mut clock), &data);
                let outage = FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000));
                sims[down].set_fault_plan(outage, 3);
                let before = request_counts(&sims).1;
                let read = cold_read(&client(as_stores(&sims)), SimDuration::ZERO, &hash);
                assert!(read == Ok(data), "slot {down} down, {len} bytes");
                assert_eq!(request_counts(&sims).1 - before, 3, "slot {down}, {len}");
            }
        }
    }

    #[test]
    fn a_fault_free_read_opens_the_data_shards_in_either_arrival_order() {
        // An `AllClouds` spec keeps pool order, so slot i is on cloud i
        // whatever its latency: the holder of slot 1 may answer first. The
        // plaintext is the shards in slot order whichever came first.
        for latencies in [[100.0, 200.0, 300.0, 400.0], [200.0, 100.0, 300.0, 400.0]] {
            let sims = latency_clouds(latencies);
            let build = |seed| {
                let spec = all_clouds_spec(&sims, 4, 3, 3);
                let config = DepSkyConfig::scfs_default();
                DepSkyClient::with_placement(as_stores(&sims), config, spec, seed).unwrap()
            };
            let mut clock = Clock::new();
            let data: Vec<u8> = (0..70_001u32).map(|i| (i * 3 + i / 97) as u8).collect();
            let hash = write(&build(1), &mut ctx(&mut clock), &data);
            let reader = build(2);
            assert_eq!(reader.holders, [0, 1, 2], "{latencies:?}");
            let read = cold_read(&reader, SimDuration::from_secs(1), &hash);
            assert!(read == Ok(data), "{latencies:?}");
            assert_eq!(request_counts(&sims).1, 2, "{latencies:?}");
        }
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
                let b = decode_block(bytes.to_vec()).ok()?;
                Some(encode_block(b.slot, b.share_index, &b.nonce, b.size, &b.share_data, b.shard()))
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
            // A fresh client finds the blocks where the pool's layout puts
            // them.
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
    fn cheapest_quorum_holds_every_blob_on_one_layout() {
        // The matrix puts the premium tier at index 0, so the cheapest
        // quorum never includes it. Blobs of any size land on the same three
        // clouds, and a client whose matrix has seen a holder fail picks
        // them too.
        let (sims, matrix) = matrix_clouds(7);
        let kind = PolicyKind::CheapestQuorum { slo_millis: 2_500 };
        let ds = placed_client(&sims, matrix.clone(), kind, 1);
        assert_eq!(ds.holders.len(), 3);
        assert!(!ds.holders.contains(&0), "{:?}", ds.holders);
        for &holder in &ds.holders {
            matrix.record(holder, SimDuration::from_secs(60), false);
        }
        assert_eq!(placed_client(&sims, matrix, kind, 2).holders, ds.holders);
        let mut clock = Clock::new();
        let mut c = ctx(&mut clock);
        for size in [10, 4096, 300_000] {
            let unit = DepSkyClient::blob_unit("f", &write(&ds, &mut c, &vec![5u8; size]));
            for (cloud, sim) in sims.iter().enumerate() {
                let slot = ds.holders.iter().position(|&h| h == cloud);
                let keys = sim.stored_keys(&format!("{KEY_SPACE}{unit}/"));
                let expected = slot.map(|slot| DepSkyClient::block_key(&unit, slot));
                assert_eq!(keys, Vec::from_iter(expected), "{size} B on cloud {cloud}");
            }
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

        // Knock out the holder FastestRead would race first (the healthiest
        // one); the first wave falls short and the read must widen to the
        // remaining holder instead of failing.
        let spec = &ds.placement;
        let first = spec
            .policy
            .read_order(&spec.matrix, &ds.holders, 2, Bytes::ZERO)[0];
        sims[first].set_fault_plan(
            FaultPlan::outage(SimInstant::EPOCH, SimInstant::from_secs(1_000_000)),
            3,
        );

        let reader = placed_client(&sims, matrix, PolicyKind::FastestRead, 10);
        assert_eq!(cold_read(&reader, SETTLED, &hash).unwrap(), data);
    }

    proptest! {
        // FastestRead escalation never loses read-your-writes under injected
        // provider outages. Any single cloud of the pool — holder or not,
        // including the slow archive and the flaky regional store — may go
        // dark after the write; the 2-of-3 erasure geometry plus wave
        // widening must still reconstruct.
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
