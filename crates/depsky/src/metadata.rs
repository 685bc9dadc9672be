//! The per-data-unit metadata object stored in every cloud.
//!
//! DepSky keeps, for each data unit, a small metadata object listing every
//! written version: its number, the content hash of the plaintext, its size,
//! the size of the encoded blocks, and each block slot's holder cloud and
//! block hash. SCFS's consistency anchor stores the hash of the current
//! version in the coordination service and asks DepSky to *read the version
//! with that hash*, which is resolved against this metadata (paper §3.2: "The
//! hashes of all versions of the data are stored in DepSky's internal
//! metadata object, stored in the clouds").
//!
//! A version record has one format, whatever placement wrote it: the paper's
//! fixed layout names clouds `0, 1, 2` as its holders like any policy names
//! its own.

use std::collections::BTreeSet;

use scfs_crypto::ContentHash;

use crate::wire::{DecodeError, Reader, Writer};

/// One block slot of a version: the cloud a placement policy chose to hold
/// it at write time, and the SHA-256 of the block stored there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSlot {
    /// Index of the holder cloud in the writer's cloud pool.
    pub cloud: u32,
    /// SHA-256 of the stored block. Readers use it to discard a block
    /// corrupted by a Byzantine cloud before attempting reconstruction.
    pub hash: ContentHash,
}

/// Description of one written version of a data unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionInfo {
    /// Monotonically increasing version number (single writer).
    pub version: u64,
    /// SHA-256 of the plaintext contents.
    pub hash: ContentHash,
    /// Plaintext size in bytes.
    pub size: u64,
    /// Size of each erasure-coded block in bytes.
    pub block_size: u64,
    /// The block slots in slot order: slot `i` is `slots[i]`, and no cloud
    /// holds two of them.
    pub slots: Vec<BlockSlot>,
}

impl VersionInfo {
    /// The clouds holding this version's blocks, in slot order.
    pub fn holder_clouds(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.cloud as usize).collect()
    }

    /// The block slot stored on `cloud`, if that cloud holds one. Readers
    /// use this to look up the expected block hash for an outcome's cloud.
    pub fn slot_for_cloud(&self, cloud: usize) -> Option<usize> {
        self.slots.iter().position(|s| s.cloud as usize == cloud)
    }
}

/// The metadata object of a data unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataUnitMetadata {
    /// Name of the data unit.
    pub name: String,
    /// All written versions, oldest first.
    pub versions: Vec<VersionInfo>,
}

impl DataUnitMetadata {
    /// Creates empty metadata for a new data unit.
    pub fn new(name: impl Into<String>) -> Self {
        DataUnitMetadata {
            name: name.into(),
            versions: Vec::new(),
        }
    }

    /// The most recent version, if any.
    pub fn latest(&self) -> Option<&VersionInfo> {
        self.versions.last()
    }

    /// Finds the (most recent) version whose plaintext hash is `hash`.
    pub fn find_by_hash(&self, hash: &ContentHash) -> Option<&VersionInfo> {
        self.versions.iter().rev().find(|v| &v.hash == hash)
    }

    /// The next version number to assign.
    pub fn next_version(&self) -> u64 {
        self.latest().map_or(1, |v| v.version + 1)
    }

    /// Appends a new version record.
    pub fn push_version(&mut self, info: VersionInfo) {
        self.versions.push(info);
    }

    /// Serializes the metadata object.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.name);
        w.put_u64(self.versions.len() as u64);
        for v in &self.versions {
            w.put_u64(v.version);
            w.put_bytes(&v.hash);
            w.put_u64(v.size);
            w.put_u64(v.block_size);
            w.put_u64(v.slots.len() as u64);
            for slot in &v.slots {
                w.put_u32(slot.cloud);
                w.put_bytes(&slot.hash);
            }
        }
        w.finish()
    }

    /// Deserializes a metadata object. The bytes come from a cloud that may
    /// be Byzantine, so this fails closed: every count is bounded by the
    /// bytes actually present before anything is allocated for it, a record
    /// naming one holder for two slots is refused, and only the exact bytes
    /// [`DataUnitMetadata::encode`] produces decode.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let name = r.get_str()?;
        let count = r.get_u64()? as usize;
        let mut versions = Vec::with_capacity(count.min(r.remaining() / MIN_VERSION_LEN));
        for _ in 0..count {
            let version = r.get_u64()?;
            let hash = get_hash(&mut r, "hash")?;
            let size = r.get_u64()?;
            let block_size = r.get_u64()?;
            let slot_count = r.get_u64()? as usize;
            let mut slots = Vec::with_capacity(slot_count.min(r.remaining() / SLOT_LEN));
            let mut holders = BTreeSet::new();
            for _ in 0..slot_count {
                let cloud = r.get_u32()?;
                if !holders.insert(cloud) {
                    return Err(DecodeError {
                        reason: format!("cloud {cloud} holds two block slots of version {version}"),
                    });
                }
                let hash = get_hash(&mut r, "block hash")?;
                slots.push(BlockSlot { cloud, hash });
            }
            versions.push(VersionInfo {
                version,
                hash,
                size,
                block_size,
                slots,
            });
        }
        if !r.is_exhausted() {
            return Err(DecodeError {
                reason: format!("{} trailing bytes after unit metadata", r.remaining()),
            });
        }
        Ok(DataUnitMetadata { name, versions })
    }
}

/// Encoded length of a hash: its length prefix and 32 bytes.
const HASH_LEN: usize = 8 + 32;

/// Encoded length of a block slot: its holder cloud and block hash.
const SLOT_LEN: usize = 4 + HASH_LEN;

/// Least encoded length of a version record (one with no block slots).
const MIN_VERSION_LEN: usize = 8 + HASH_LEN + 8 + 8 + 8;

fn get_hash(r: &mut Reader<'_>, what: &str) -> Result<ContentHash, DecodeError> {
    let bytes = r.get_bytes_max(32)?;
    bytes.try_into().map_err(|_| DecodeError {
        reason: format!("{what} must be 32 bytes, got {}", bytes.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scfs_crypto::sha256;

    /// A version of `content` whose three block slots live on `clouds`.
    fn placed(v: u64, content: &[u8], clouds: [u32; 3]) -> VersionInfo {
        let blocks = [b"block0", b"block1", b"block2"];
        VersionInfo {
            version: v,
            hash: sha256(content),
            size: content.len() as u64,
            block_size: (content.len() as u64).div_ceil(2),
            slots: clouds
                .into_iter()
                .zip(blocks)
                .map(|(cloud, block)| BlockSlot {
                    cloud,
                    hash: sha256(block),
                })
                .collect(),
        }
    }

    /// A version of `content` in the paper's layout: slot `i` on cloud `i`.
    fn info(v: u64, content: &[u8]) -> VersionInfo {
        placed(v, content, [0, 1, 2])
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut md = DataUnitMetadata::new("files/doc.odt");
        md.push_version(info(1, b"version one"));
        md.push_version(info(2, b"version two"));
        let decoded = DataUnitMetadata::decode(&md.encode()).unwrap();
        assert_eq!(decoded, md);
    }

    #[test]
    fn empty_metadata_round_trips() {
        let md = DataUnitMetadata::new("x");
        assert_eq!(DataUnitMetadata::decode(&md.encode()).unwrap(), md);
        assert!(md.latest().is_none());
        assert_eq!(md.next_version(), 1);
    }

    #[test]
    fn latest_and_find_by_hash() {
        let mut md = DataUnitMetadata::new("f");
        md.push_version(info(1, b"a"));
        md.push_version(info(2, b"b"));
        assert_eq!(md.latest().unwrap().version, 2);
        assert_eq!(md.next_version(), 3);
        assert_eq!(md.find_by_hash(&sha256(b"a")).unwrap().version, 1);
        assert!(md.find_by_hash(&sha256(b"zzz")).is_none());
    }

    #[test]
    fn placed_versions_round_trip_and_translate_slots() {
        let mut md = DataUnitMetadata::new("placed");
        md.push_version(placed(1, b"placed", [4, 1, 6]));
        let decoded = DataUnitMetadata::decode(&md.encode()).unwrap();
        assert_eq!(decoded, md);
        let v = decoded.latest().unwrap();
        assert_eq!(v.holder_clouds(), vec![4, 1, 6]);
        assert_eq!(v.slot_for_cloud(4), Some(0));
        assert_eq!(v.slot_for_cloud(1), Some(1));
        assert_eq!(v.slot_for_cloud(6), Some(2));
        assert_eq!(v.slot_for_cloud(0), None);
    }

    #[test]
    fn identity_versions_translate_slots_as_before() {
        // The paper's layout is a placement like any other: slot i on cloud i.
        let mut md = DataUnitMetadata::new("paper");
        md.push_version(info(1, b"x"));
        let decoded = DataUnitMetadata::decode(&md.encode()).unwrap();
        let v = decoded.latest().unwrap();
        assert_eq!(v.holder_clouds(), vec![0, 1, 2]);
        assert_eq!(v.slot_for_cloud(2), Some(2));
        assert_eq!(v.slot_for_cloud(3), None);
    }

    #[test]
    fn mismatched_placement_count_fails_to_decode() {
        // The slot count claims one slot more, then one fewer, than follow.
        let mut md = DataUnitMetadata::new("bad");
        md.push_version(info(1, b"v1"));
        let buf = md.encode();
        let count_at = buf.len() - 3 * SLOT_LEN - 8;
        assert_eq!(buf[count_at], 3);
        for claimed in [4, 2] {
            let mut bad = buf.clone();
            bad[count_at] = claimed;
            assert!(DataUnitMetadata::decode(&bad).is_err(), "{claimed} slots");
        }
    }

    #[test]
    fn a_record_naming_a_holder_twice_fails_to_decode() {
        // Two copies of one shard from cloud 1 would fill the f + 1 read
        // quorum while the honest holder of the other slot went unasked.
        let mut md = DataUnitMetadata::new("bad");
        md.push_version(placed(1, b"v1", [1, 1, 2]));
        assert!(DataUnitMetadata::decode(&md.encode()).is_err());
    }

    #[test]
    fn corrupted_buffer_fails_to_decode() {
        let mut md = DataUnitMetadata::new("f");
        md.push_version(info(1, b"a"));
        let mut buf = md.encode();
        buf.truncate(buf.len() - 3);
        assert!(DataUnitMetadata::decode(&buf).is_err());
    }

    proptest! {
        /// [`crate::wire::assert_fails_closed`] over records of one to three
        /// versions, and each of them refused once one of its holders is
        /// named for a second slot.
        #[test]
        fn prop_damaged_records_fail_closed(
            versions in 1u64..4,
            twice in 0usize..3,
            tail in proptest::collection::vec(any::<u8>(), 1..24),
            flip in 1u8..=255,
        ) {
            let mut md = DataUnitMetadata::new("alice-f1|00ff");
            for n in 1..=versions {
                let holders = if n % 2 == 1 { [4, 1, 6] } else { [0, 1, 2] };
                md.push_version(placed(n, &n.to_le_bytes(), holders));
            }
            let valid = md.encode();
            prop_assert_eq!(&DataUnitMetadata::decode(&valid).unwrap(), &md);
            crate::wire::assert_fails_closed(&valid, &tail, flip, 33, |bytes| {
                DataUnitMetadata::decode(bytes).ok().map(|md| md.encode())
            });
            for v in 0..md.versions.len() {
                let mut repeated = md.clone();
                let slots = &mut repeated.versions[v].slots;
                slots[twice].cloud = slots[(twice + 1) % 3].cloud;
                prop_assert!(DataUnitMetadata::decode(&repeated.encode()).is_err());
            }
        }
    }
}
