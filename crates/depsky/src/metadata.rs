//! The per-data-unit metadata object stored in every cloud.
//!
//! DepSky keeps, for each data unit, a small metadata object listing every
//! written version: its number, the content hash of the plaintext, its size,
//! and the size of the encoded blocks. SCFS's consistency anchor stores the
//! hash of the current version in the coordination service and asks DepSky
//! to *read the version with that hash*, which is resolved against this
//! metadata (paper §3.2: "The hashes of all versions of the data are stored
//! in DepSky's internal metadata object, stored in the clouds").

use scfs_crypto::ContentHash;

use crate::wire::{DecodeError, Reader, Writer};

/// High bit of the encoded data-cloud count, set when an explicit placement
/// vector follows the block hashes. Identity-placed versions never set it,
/// keeping their encoding byte-identical to the pre-placement format.
const PLACEMENT_FLAG: u32 = 0x8000_0000;

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
    /// Number of clouds holding a data block for this version.
    pub data_clouds: u32,
    /// SHA-256 of each stored block, indexed by data-cloud position. Readers
    /// use these to discard blocks corrupted by a Byzantine cloud before
    /// attempting reconstruction.
    pub block_hashes: Vec<ContentHash>,
    /// Which cloud holds each block slot, chosen by a placement policy at
    /// write time: `placements[slot]` is the cloud index of slot `slot`.
    /// Empty means the identity placement (slot `i` on cloud `i`) — the
    /// paper's fixed layout — and encodes to the exact pre-placement bytes,
    /// so placement-oblivious deployments keep byte-identical metadata.
    pub placements: Vec<u32>,
}

impl VersionInfo {
    /// The clouds holding this version's blocks, in slot order.
    pub fn holder_clouds(&self) -> Vec<usize> {
        if self.placements.is_empty() {
            (0..self.data_clouds as usize).collect()
        } else {
            self.placements.iter().map(|&c| c as usize).collect()
        }
    }

    /// The block slot stored on `cloud`, if that cloud holds one. Readers
    /// use this to look up the expected block hash for an outcome's cloud.
    pub fn slot_for_cloud(&self, cloud: usize) -> Option<usize> {
        if self.placements.is_empty() {
            (cloud < self.data_clouds as usize).then_some(cloud)
        } else {
            self.placements.iter().position(|&c| c as usize == cloud)
        }
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
            // Non-identity placements piggyback on the high bit of the
            // data-cloud count, so identity versions (the only kind written
            // before placement existed) still encode to the original bytes.
            if v.placements.is_empty() {
                w.put_u32(v.data_clouds);
            } else {
                w.put_u32(PLACEMENT_FLAG | v.data_clouds);
            }
            w.put_u64(v.block_hashes.len() as u64);
            for h in &v.block_hashes {
                w.put_bytes(h);
            }
            if !v.placements.is_empty() {
                w.put_u64(v.placements.len() as u64);
                for &c in &v.placements {
                    w.put_u32(c);
                }
            }
        }
        w.finish()
    }

    /// Deserializes a metadata object. The bytes come from a cloud that may
    /// be Byzantine, so this fails closed: every count is bounded by the
    /// bytes actually present before anything is allocated for it, and only
    /// the exact bytes [`DataUnitMetadata::encode`] produces decode.
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
            let raw_clouds = r.get_u32()?;
            let placed = raw_clouds & PLACEMENT_FLAG != 0;
            let data_clouds = raw_clouds & !PLACEMENT_FLAG;
            let hash_count = r.get_u64()? as usize;
            let mut block_hashes = Vec::with_capacity(hash_count.min(r.remaining() / HASH_LEN));
            for _ in 0..hash_count {
                block_hashes.push(get_hash(&mut r, "block hash")?);
            }
            let mut placements = Vec::new();
            if placed {
                let placement_count = r.get_u64()? as usize;
                // An empty placement vector is spelled by a clear flag.
                if placement_count != data_clouds as usize || placement_count == 0 {
                    return Err(DecodeError {
                        reason: format!(
                            "placement count {placement_count} does not match \
                             {data_clouds} block slots"
                        ),
                    });
                }
                placements.reserve(placement_count.min(r.remaining() / 4));
                for _ in 0..placement_count {
                    placements.push(r.get_u32()?);
                }
            }
            versions.push(VersionInfo {
                version,
                hash,
                size,
                block_size,
                data_clouds,
                block_hashes,
                placements,
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

/// Least encoded length of a version record (one with no block hashes).
const MIN_VERSION_LEN: usize = 8 + HASH_LEN + 8 + 8 + 4 + 8;

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

    fn info(v: u64, content: &[u8]) -> VersionInfo {
        VersionInfo {
            version: v,
            hash: sha256(content),
            size: content.len() as u64,
            block_size: (content.len() as u64).div_ceil(2),
            data_clouds: 3,
            block_hashes: vec![sha256(b"block0"), sha256(b"block1"), sha256(b"block2")],
            placements: Vec::new(),
        }
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
        let mut v = info(1, b"placed");
        v.placements = vec![4, 1, 6];
        md.push_version(v);
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
        let v = info(1, b"x");
        assert_eq!(v.holder_clouds(), vec![0, 1, 2]);
        assert_eq!(v.slot_for_cloud(2), Some(2));
        assert_eq!(v.slot_for_cloud(3), None);
    }

    #[test]
    fn identity_versions_encode_to_the_pre_placement_bytes() {
        // Reconstruct the original encoder by hand: any change here means
        // old committed registries would no longer decode bit-for-bit.
        let mut md = DataUnitMetadata::new("compat");
        md.push_version(info(1, b"v1"));
        let mut w = crate::wire::Writer::new();
        w.put_str("compat");
        w.put_u64(1);
        let v = &md.versions[0];
        w.put_u64(v.version);
        w.put_bytes(&v.hash);
        w.put_u64(v.size);
        w.put_u64(v.block_size);
        w.put_u32(v.data_clouds);
        w.put_u64(v.block_hashes.len() as u64);
        for h in &v.block_hashes {
            w.put_bytes(h);
        }
        assert_eq!(md.encode(), w.finish());
    }

    #[test]
    fn mismatched_placement_count_fails_to_decode() {
        let mut md = DataUnitMetadata::new("bad");
        let mut v = info(1, b"v1");
        v.placements = vec![4, 1]; // 2 placements for 3 slots
        md.push_version(v);
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

    #[test]
    fn a_flagged_version_without_placements_fails_to_decode() {
        // Same record, two spellings: only the one `encode` writes decodes.
        let mut v = info(1, b"v1");
        v.data_clouds = 0;
        let mut md = DataUnitMetadata::new("bad");
        md.push_version(v);
        let mut buf = md.encode();
        let flag_at = buf.len() - (8 + 3 * 40) - 1;
        buf[flag_at] |= 0x80;
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(DataUnitMetadata::decode(&buf).is_err());
    }

    proptest! {
        /// [`crate::wire::assert_fails_closed`] over records of one to three
        /// versions, placed and not.
        #[test]
        fn prop_damaged_records_fail_closed(
            versions in 1u64..4,
            placed in 0u8..2,
            tail in proptest::collection::vec(any::<u8>(), 1..24),
            flip in 1u8..=255,
        ) {
            let mut md = DataUnitMetadata::new("alice-f1|00ff");
            for n in 1..=versions {
                let mut v = info(n, &n.to_le_bytes());
                if placed == 1 && n % 2 == 1 {
                    v.placements = vec![4, 1, 6];
                }
                md.push_version(v);
            }
            let valid = md.encode();
            prop_assert_eq!(&DataUnitMetadata::decode(&valid).unwrap(), &md);
            crate::wire::assert_fails_closed(&valid, &tail, flip, 33, |bytes| {
                DataUnitMetadata::decode(bytes).ok().map(|md| md.encode())
            });
        }
    }
}
