//! Core SCFS data types: paths, metadata tuples, chunk maps, open flags and
//! handles.

use std::sync::Arc;

use cloud_store::types::{AccountId, Acl, Permission};
use depsky::wire::{DecodeError, Reader, Writer};
use scfs_crypto::{sha256, ContentHash};
use sim_core::time::SimInstant;

/// Default chunk size of the chunked data path (1 MiB), overridable through
/// [`crate::config::ScfsConfig::chunk_size`].
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 20;

/// Upper bound on the logical length of a file (1 TiB).
///
/// The write path refuses to grow a file past this bound (a huge-offset
/// `write` returns an error instead of wrapping the end-offset arithmetic),
/// and [`ChunkMap::decode`] rejects manifests claiming a longer file — a
/// crafted `file_len` must not translate into an absurd buffer allocation.
pub const MAX_FILE_LEN: u64 = 1 << 40;

/// Largest encoded [`ChunkMap`] a metadata tuple carries inline
/// ([`FileMetadata::commit_version`]): 512 bytes hold up to 12 fixed-size or
/// 9 content-defined chunks, which keeps the tuple inside the ~1 KB the
/// paper's coordination-service capacity analysis budgets. Larger manifests
/// are read from the storage service under the anchored root hash.
pub const INLINE_MANIFEST_MAX: usize = 512;

/// Where a version's manifest lives — the one place that decides. `true`:
/// the encoded [`ChunkMap`] `manifest` rides in the metadata tuple and the
/// storage service stores **no** manifest object for the version; `false`:
/// the tuple carries the root hash alone and the manifest is an object
/// under `id|root`. The tuple writer ([`FileMetadata::commit_version`]) and
/// the storage backends ([`crate::backend::FileStorage::write_version`],
/// `copy_version_with_map`) both ask here, so a version's manifest is
/// always in exactly one of the two places.
pub fn manifest_rides_inline(manifest: &[u8]) -> bool {
    manifest.len() <= INLINE_MANIFEST_MAX
}

/// Minimum encoded size of one chunk record in a v1 manifest: the 8-byte
/// length prefix plus the 32-byte hash. Bounds the chunk count a decoder
/// will believe before it has read a single hash.
const V1_CHUNK_RECORD_LEN: usize = 8 + 32;

/// Minimum encoded size of one chunk record in a v2 manifest: the 8-byte
/// extent length plus the length-prefixed hash.
const V2_CHUNK_RECORD_LEN: usize = 8 + V1_CHUNK_RECORD_LEN;

/// Leading `u64` marking a version-2 (content-defined) manifest. A v1
/// manifest starts with its `file_len`, which [`ChunkMap::decode`] bounds by
/// [`MAX_FILE_LEN`] — so the all-ones marker can never be confused with a
/// valid v1 length.
const MANIFEST_V2_MAGIC: u64 = u64::MAX;

/// Gear table of the content-defined chunker: 256 pseudo-random 64-bit
/// constants, one per byte value, generated from a fixed SplitMix64 stream
/// so every agent derives identical chunk boundaries (and therefore
/// identical chunk hashes — the whole point of content-defined dedup).
const fn gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state: u64 = 0x5C47_33A9_D0B1_7E64;
    let mut i = 0;
    while i < 256 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

static GEAR: [u64; 256] = gear_table();

/// The min/avg/max chunk-size knobs of the content-defined chunker
/// ([`ChunkMap::build_cdc`], surfaced as
/// [`crate::config::ChunkingMode::Cdc`]).
///
/// Boundaries are found FastCDC-style: a Gear rolling hash is evaluated
/// from `min_size` on, against a hard mask before the `avg_size` point and
/// an easy mask after it (normalized chunking), with a forced cut at
/// `max_size`. The expected chunk size is ~`avg_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdcParams {
    /// No boundary is placed before this many bytes (also the floor for the
    /// final chunk, which simply ends at EOF).
    pub min_size: usize,
    /// Target average chunk size; drives the boundary masks.
    pub avg_size: usize,
    /// A cut is forced at this many bytes when no content boundary fired.
    pub max_size: usize,
}

impl CdcParams {
    /// Parameters targeting an average chunk of `avg` bytes, with the
    /// conventional `avg/4` minimum and `4*avg` maximum.
    pub fn with_avg(avg: usize) -> Self {
        CdcParams {
            min_size: avg / 4,
            avg_size: avg,
            max_size: avg.saturating_mul(4),
        }
    }

    /// The parameters with the invariants the chunker relies on restored:
    /// `64 ≤ avg`, `1 ≤ min ≤ avg ≤ max`, `max ≤ u32::MAX`.
    fn normalized(&self) -> CdcParams {
        let avg = self.avg_size.clamp(64, 1 << 30);
        CdcParams {
            min_size: self.min_size.clamp(1, avg),
            avg_size: avg,
            max_size: self.max_size.clamp(avg, u32::MAX as usize),
        }
    }
}

impl Default for CdcParams {
    /// The defaults pair with the 1 MiB [`DEFAULT_CHUNK_SIZE`]: 256 KiB min,
    /// 1 MiB average, 4 MiB max.
    fn default() -> Self {
        CdcParams::with_avg(DEFAULT_CHUNK_SIZE)
    }
}

/// Length of the next chunk of `data` under the FastCDC cut rule: the first
/// position past `min_size` where the Gear hash matches the hard mask
/// (before the average point) or the easy mask (after it), else `max_size`,
/// else all of `data`.
fn cdc_cut(data: &[u8], params: &CdcParams) -> usize {
    let len = data.len();
    if len <= params.min_size {
        return len;
    }
    let max = params.max_size.min(len);
    let bits = params.avg_size.ilog2();
    // Normalized chunking: 4x harder than average before the target point,
    // 4x easier after it, squeezing the size distribution toward avg.
    let mask_hard: u64 = (1u64 << (bits + 2)) - 1;
    let mask_easy: u64 = (1u64 << bits.saturating_sub(2)) - 1;
    let normal = params.avg_size.min(max);
    let mut hash: u64 = 0;
    let mut i = params.min_size;
    while i < normal {
        hash = (hash << 1).wrapping_add(GEAR[data[i] as usize]);
        if hash & mask_hard == 0 {
            return i + 1;
        }
        i += 1;
    }
    while i < max {
        hash = (hash << 1).wrapping_add(GEAR[data[i] as usize]);
        if hash & mask_easy == 0 {
            return i + 1;
        }
        i += 1;
    }
    max
}

/// The ordered list of content-addressed chunks making up one file version.
///
/// The chunked data path stores a file as chunks, each addressed by the
/// SHA-256 of its contents, plus this small manifest. The consistency
/// anchor keeps exactly one hash per version — the [`ChunkMap::root_hash`],
/// the SHA-256 of the encoded manifest — so the coordination-service
/// protocol is unchanged while the storage service gains chunk-level dedup
/// (identical chunks are shared across versions) and incremental transfer
/// (only dirty chunks move on close, only missing chunks on read).
///
/// Chunk boundaries come from one of two layouts behind the same extent
/// API ([`ChunkMap::byte_range`], [`ChunkMap::chunks_for_range`], ...):
///
/// * **fixed-size** ([`ChunkMap::build`]) — every chunk is `chunk_size`
///   bytes (the final one may be shorter); serialized as a **v1** manifest,
///   byte-identical to the pre-extent format, so previously committed
///   versions keep their root hashes;
/// * **content-defined** ([`ChunkMap::build_cdc`]) — boundaries follow a
///   Gear/FastCDC rolling hash ([`CdcParams`]), so an insert or delete in
///   the middle of a file only re-cuts the chunks around the edit and the
///   shifted tail re-aligns to identical hashes (shift-resistant dedup);
///   serialized as a **v2** manifest carrying the per-chunk extent table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMap {
    file_len: u64,
    /// The size knob the map was built with: the stride of a fixed-size map,
    /// the target average of a content-defined one.
    chunk_size: u32,
    chunks: Vec<ContentHash>,
    /// Start offset of chunk `i`; chunk `i` covers
    /// `offsets[i]..offsets[i + 1]` (the last chunk ends at `file_len`).
    /// Always sorted, `offsets[0] == 0`, one entry per chunk.
    offsets: Vec<u64>,
}

/// How a file is cut into chunks: the one rule [`ChunkMap::rebuild`] — and
/// so every writer — applies, at fixed strides or at content-defined
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutRule {
    /// Every chunk is this many bytes (the final one may be shorter).
    Fixed(usize),
    /// Gear/FastCDC boundaries under these knobs.
    Cdc(CdcParams),
}

impl CutRule {
    /// The rule with its parameters validated (fixed) or clamped (CDC).
    fn normalized(self) -> CutRule {
        match self {
            CutRule::Fixed(stride) => {
                assert!(
                    stride > 0 && stride <= u32::MAX as usize,
                    "chunk size must be in 1..=u32::MAX"
                );
                self
            }
            CutRule::Cdc(params) => CutRule::Cdc(params.normalized()),
        }
    }

    /// The size knob a map cut by this rule records as its `chunk_size`.
    fn nominal(&self) -> u32 {
        match self {
            CutRule::Fixed(stride) => *stride as u32,
            CutRule::Cdc(params) => params.avg_size as u32,
        }
    }

    /// Length of the chunk starting at `rest[0]`, `rest` running to EOF.
    fn cut(&self, rest: &[u8]) -> usize {
        match self {
            CutRule::Fixed(stride) => rest.len().min(*stride),
            CutRule::Cdc(params) => cdc_cut(rest, params),
        }
    }
}

impl ChunkMap {
    /// Builds the chunk map of `data` split into fixed `chunk_size`-byte
    /// chunks (the final chunk may be shorter). An empty file has zero
    /// chunks. Serializes as a v1 manifest.
    pub fn build(data: &[u8], chunk_size: usize) -> Self {
        Self::rebuild(None, data, 0..0, CutRule::Fixed(chunk_size)).0
    }

    /// Builds the chunk map of `data` with content-defined boundaries (Gear
    /// rolling hash, FastCDC-style normalized cut rule; see [`CdcParams`]).
    /// An empty file has zero chunks. Serializes as a v2 manifest carrying
    /// the extent table.
    pub fn build_cdc(data: &[u8], params: &CdcParams) -> Self {
        Self::rebuild(None, data, 0..0, CutRule::Cdc(*params)).0
    }

    /// The chunk map of `data` under `rule` — exactly the map cutting all of
    /// `data` from scratch yields — and the number of bytes that had to be
    /// cut and hashed to get it: all of them without a `prev`, about the
    /// size of the edit with one.
    ///
    /// `prev` is a map `rule` cut of an earlier state of the file, and
    /// `dirty` covers every byte of `data` that may differ from that state
    /// at the same offset; when the two lengths differ, everything from
    /// `dirty.start` on counts as dirty. The cut rule decides where a chunk
    /// ends from the bytes of that chunk alone — unless EOF ends it — so:
    ///
    /// * every `prev` chunk lying wholly before the extent is kept, hash and
    ///   all. Never the last one across a length change: EOF cut it, not its
    ///   content, and the same bytes followed by more may cut elsewhere;
    /// * cutting resumes at the start of the first affected chunk;
    /// * past `dirty.end`, as soon as a cut lands on a `prev` boundary of a
    ///   file of unchanged length, the bytes from there on are the bytes
    ///   `prev` was cut from, and its remaining entries are spliced in
    ///   unhashed.
    ///
    /// A `prev` of another stride or target average is ignored (a full
    /// rebuild); one cut under different CDC min/max knobs of the same
    /// average is not recognisable, and yields a valid tiling with correct
    /// hashes that a from-scratch cut would have placed differently.
    pub fn rebuild(
        prev: Option<&ChunkMap>,
        data: &[u8],
        dirty: std::ops::Range<u64>,
        rule: CutRule,
    ) -> (Self, u64) {
        let rule = rule.normalized();
        let len = data.len() as u64;
        let mut map = ChunkMap {
            file_len: len,
            chunk_size: rule.nominal(),
            chunks: Vec::new(),
            offsets: Vec::new(),
        };
        let prev = prev.filter(|prev| match rule {
            CutRule::Fixed(_) => prev.chunk_size == map.chunk_size && prev.is_uniform(),
            CutRule::Cdc(_) => prev.chunk_size == map.chunk_size,
        });
        let same_len = prev.is_some_and(|prev| prev.file_len == len);
        let dirty_end = if same_len { dirty.end.min(len) } else { len };
        let dirty_start = dirty.start.min(dirty_end);
        let mut pos = 0usize;
        if let Some(prev) = prev {
            if same_len && dirty_start == dirty_end {
                return (prev.clone(), 0);
            }
            // The chunk holding `dirty_start` is the last one starting at or
            // before it; everything in front of that one is untouched.
            let keep = prev
                .offsets
                .partition_point(|&start| start <= dirty_start)
                .saturating_sub(1);
            map.chunks.extend_from_slice(&prev.chunks[..keep]);
            map.offsets.extend_from_slice(&prev.offsets[..keep]);
            pos = prev.offsets.get(keep).map_or(0, |&start| start as usize);
        }
        let resync = prev.filter(|_| same_len);
        let recut_from = pos;
        while pos < data.len() {
            if let Some(prev) = resync.filter(|_| pos as u64 >= dirty_end) {
                if let Ok(index) = prev.offsets.binary_search(&(pos as u64)) {
                    map.chunks.extend_from_slice(&prev.chunks[index..]);
                    map.offsets.extend_from_slice(&prev.offsets[index..]);
                    break;
                }
            }
            let end = pos + rule.cut(&data[pos..]);
            map.offsets.push(pos as u64);
            map.chunks.push(sha256(&data[pos..end]));
            pos = end;
        }
        (map, (pos - recut_from) as u64)
    }

    /// The map of an empty file.
    pub fn empty(chunk_size: usize) -> Self {
        ChunkMap::build(&[], chunk_size)
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The nominal chunk size this map was built with: the fixed stride of a
    /// v1 map, the target average of a content-defined one.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size as usize
    }

    /// The per-chunk content hashes, in file order.
    pub fn chunks(&self) -> &[ContentHash] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Byte range of chunk `index` within the file, straight from the
    /// extent table.
    pub fn byte_range(&self, index: usize) -> std::ops::Range<usize> {
        let start = self.offsets[index] as usize;
        let end = self
            .offsets
            .get(index + 1)
            .copied()
            .unwrap_or(self.file_len) as usize;
        start..end
    }

    /// Length in bytes of chunk `index`.
    pub fn chunk_len(&self, index: usize) -> usize {
        self.byte_range(index).len()
    }

    /// Indices of the chunks overlapping the byte range `[offset,
    /// offset + len)`, clamped to the end of the file — found by binary
    /// search over the extent table, so it works for fixed-size and
    /// content-defined layouts alike. This is the offset math behind lazy
    /// byte-range reads: a `read(offset, len)` only has to materialize
    /// exactly these chunks.
    pub fn chunks_for_range(&self, offset: u64, len: usize) -> std::ops::Range<usize> {
        let end = offset.saturating_add(len as u64).min(self.file_len);
        if offset >= end {
            return 0..0;
        }
        // `offsets[0] == 0 <= offset`, so the partition point is >= 1: the
        // chunk containing `offset` is the last one starting at or before it.
        let first = self.offsets.partition_point(|&start| start <= offset) - 1;
        let last = self.offsets.partition_point(|&start| start < end);
        first..last
    }

    /// The single hash the consistency anchor stores for this version: the
    /// SHA-256 of the encoded manifest.
    pub fn root_hash(&self) -> ContentHash {
        sha256(&self.encode())
    }

    /// The distinct chunk hashes of this version — the set of references a
    /// version holds in the global chunk store (a chunk repeated within the
    /// file still counts as one reference). Ordered, so refcount bookkeeping
    /// derived from it is iteration-order deterministic.
    pub fn unique_chunks(&self) -> std::collections::BTreeSet<ContentHash> {
        self.chunks.iter().copied().collect()
    }

    /// Indices of the chunks of this map that `prev` does not already hold —
    /// the chunks a writer must upload when the previous version is `prev`.
    /// Purely a hash-set comparison, so it is meaningful across maps with
    /// different boundaries (fixed vs content-defined, or two
    /// content-defined maps of shifted content).
    pub fn dirty_chunks(&self, prev: Option<&ChunkMap>) -> Vec<usize> {
        let existing: std::collections::HashSet<&ContentHash> =
            prev.map(|p| p.chunks.iter().collect()).unwrap_or_default();
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, h)| !existing.contains(h))
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the extent table is exactly the fixed-size layout of
    /// `chunk_size` — i.e. the map can round-trip through the v1 encoding.
    fn is_uniform(&self) -> bool {
        let stride = self.chunk_size as u64;
        stride > 0
            && self.chunks.len() as u64 == self.file_len.div_ceil(stride)
            && self
                .offsets
                .iter()
                .enumerate()
                .all(|(i, &start)| start == i as u64 * stride)
    }

    /// Serializes the manifest (what the storage service stores under the
    /// root hash). Fixed-size maps emit the v1 format (byte-identical to the
    /// pre-extent encoding, keeping committed root hashes stable);
    /// content-defined maps emit v2 with the per-chunk extent table.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        if self.is_uniform() {
            w.put_u64(self.file_len);
            w.put_u64(self.chunk_size as u64);
            w.put_u64(self.chunks.len() as u64);
            for hash in &self.chunks {
                w.put_bytes(hash);
            }
        } else {
            w.put_u64(MANIFEST_V2_MAGIC);
            w.put_u8(2);
            w.put_u64(self.file_len);
            w.put_u64(self.chunk_size as u64);
            w.put_u64(self.chunks.len() as u64);
            for (index, hash) in self.chunks.iter().enumerate() {
                w.put_u64(self.chunk_len(index) as u64);
                w.put_bytes(hash);
            }
        }
        w.finish()
    }

    /// Deserializes a manifest — v1 (fixed-size) or v2 (extent table).
    ///
    /// Fails closed on hostile input: the claimed chunk count is bounded by
    /// the bytes actually present before any allocation (a crafted
    /// `file_len = u64::MAX, chunk_size = 1` header errors instead of
    /// aborting on `Vec::with_capacity`), `file_len` is bounded by
    /// [`MAX_FILE_LEN`], and any unconsumed trailing bytes are rejected so
    /// two distinct blobs can never decode to the same manifest.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let first = r.get_u64()?;
        let map = if first == MANIFEST_V2_MAGIC {
            Self::decode_v2(&mut r)?
        } else {
            Self::decode_v1(first, &mut r)?
        };
        if !r.is_exhausted() {
            return Err(DecodeError {
                reason: format!("{} trailing bytes after manifest", r.remaining()),
            });
        }
        Ok(map)
    }

    /// Checked conversion of a claimed chunk count: it must be covered by
    /// the remaining input at `record_len` bytes per chunk *before* any
    /// capacity is reserved for it.
    fn checked_count(
        count: u64,
        remaining: usize,
        record_len: usize,
    ) -> Result<usize, DecodeError> {
        if count > (remaining / record_len) as u64 {
            return Err(DecodeError {
                reason: format!("chunk count {count} exceeds the {remaining} bytes of input"),
            });
        }
        Ok(count as usize)
    }

    fn checked_file_len(file_len: u64) -> Result<u64, DecodeError> {
        if file_len > MAX_FILE_LEN {
            return Err(DecodeError {
                reason: format!("file length {file_len} exceeds the {MAX_FILE_LEN} maximum"),
            });
        }
        Ok(file_len)
    }

    fn read_hash(r: &mut Reader<'_>) -> Result<ContentHash, DecodeError> {
        let bytes = r.get_bytes()?;
        if bytes.len() != 32 {
            return Err(DecodeError {
                reason: "chunk hash must be 32 bytes".into(),
            });
        }
        let mut h = [0u8; 32];
        h.copy_from_slice(&bytes);
        Ok(h)
    }

    /// The v1 body: `file_len` (already read), `chunk_size`, `count`, then
    /// the hashes; the extent table is implied by the fixed stride.
    fn decode_v1(file_len: u64, r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let file_len = Self::checked_file_len(file_len)?;
        let chunk_size = r.get_u64()?;
        if chunk_size == 0 || chunk_size > u32::MAX as u64 {
            return Err(DecodeError {
                reason: format!("invalid chunk size {chunk_size}"),
            });
        }
        let count = r.get_u64()?;
        if count != file_len.div_ceil(chunk_size) {
            return Err(DecodeError {
                reason: format!("chunk count {count} does not cover file of {file_len} bytes"),
            });
        }
        let count = Self::checked_count(count, r.remaining(), V1_CHUNK_RECORD_LEN)?;
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            chunks.push(Self::read_hash(r)?);
        }
        Ok(ChunkMap {
            file_len,
            chunk_size: chunk_size as u32,
            chunks,
            offsets: (0..file_len).step_by(chunk_size as usize).collect(),
        })
    }

    /// The v2 body (after the magic): version byte, `file_len`, the nominal
    /// `chunk_size`, `count`, then per chunk its extent length and hash.
    /// The extents must tile `[0, file_len)` exactly.
    fn decode_v2(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let version = r.get_u8()?;
        if version != 2 {
            return Err(DecodeError {
                reason: format!("unsupported manifest version {version}"),
            });
        }
        let file_len = Self::checked_file_len(r.get_u64()?)?;
        let chunk_size = r.get_u64()?;
        if chunk_size == 0 || chunk_size > u32::MAX as u64 {
            return Err(DecodeError {
                reason: format!("invalid chunk size {chunk_size}"),
            });
        }
        let count = Self::checked_count(r.get_u64()?, r.remaining(), V2_CHUNK_RECORD_LEN)?;
        let mut chunks = Vec::with_capacity(count);
        let mut offsets = Vec::with_capacity(count);
        let mut next_start = 0u64;
        for _ in 0..count {
            let len = r.get_u64()?;
            if len == 0 || next_start.saturating_add(len) > file_len {
                return Err(DecodeError {
                    reason: format!("chunk extent of {len} bytes overruns the file"),
                });
            }
            offsets.push(next_start);
            next_start += len;
            chunks.push(Self::read_hash(r)?);
        }
        if next_start != file_len {
            return Err(DecodeError {
                reason: format!("extents cover {next_start} of {file_len} file bytes"),
            });
        }
        Ok(ChunkMap {
            file_len,
            chunk_size: chunk_size as u32,
            chunks,
            offsets,
        })
    }
}

/// Type of a file-system object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// The metadata tuple SCFS keeps for every file-system object
/// (paper §2.5.1): name, type, parent, POSIX-ish attributes, the opaque
/// identifier of the object in the storage service, and the hash of the
/// current version — the last two being exactly the `(id, hash)` pair stored
/// in the consistency anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMetadata {
    /// Absolute path of the object (doubles as its name + parent).
    pub path: String,
    /// File or directory.
    pub file_type: FileType,
    /// Size of the current version in bytes (0 for directories).
    pub size: u64,
    /// Owner of the object.
    pub owner: AccountId,
    /// Access control list (empty = private).
    pub acl: Acl,
    /// Creation instant.
    pub created_at: SimInstant,
    /// Last-modification instant.
    pub modified_at: SimInstant,
    /// Opaque identifier of the file's data in the storage service
    /// (the `id` of the consistency-anchor algorithm).
    pub storage_id: String,
    /// SHA-256 of the current version (the `hash` of the consistency anchor);
    /// `None` until the first version is written.
    pub version_hash: Option<ContentHash>,
    /// The encoded [`ChunkMap`] of the current version, carried in the tuple
    /// when it fits [`INLINE_MANIFEST_MAX`], so a reader learns the chunk
    /// list from the anchor read itself. Authenticated, never trusted:
    /// whenever it is present `sha256(manifest) == version_hash`, so the
    /// anchor still names exactly one version. Private to keep that true —
    /// [`FileMetadata::commit_version`] and [`FileMetadata::commit_copy_of`]
    /// are the only writers and [`FileMetadata::decode`] rejects a tuple
    /// that breaks it.
    manifest: Option<Arc<[u8]>>,
    /// Number of versions written so far.
    pub version_count: u64,
    /// Whether the user deleted the object (kept as a tombstone until the
    /// garbage collector reclaims it, paper §2.5.3).
    pub deleted: bool,
}

impl FileMetadata {
    /// Creates metadata for a new, empty file.
    pub fn new_file(path: &str, owner: AccountId, storage_id: String, now: SimInstant) -> Self {
        FileMetadata {
            path: path.to_string(),
            file_type: FileType::File,
            size: 0,
            owner,
            acl: Acl::private(),
            created_at: now,
            modified_at: now,
            storage_id,
            version_hash: None,
            manifest: None,
            version_count: 0,
            deleted: false,
        }
    }

    /// Creates metadata for a new directory.
    pub fn new_directory(path: &str, owner: AccountId, now: SimInstant) -> Self {
        FileMetadata {
            path: path.to_string(),
            file_type: FileType::Directory,
            size: 0,
            owner,
            acl: Acl::private(),
            created_at: now,
            modified_at: now,
            storage_id: String::new(),
            version_hash: None,
            manifest: None,
            version_count: 0,
            deleted: false,
        }
    }

    /// Whether the object is shared with at least one other user.
    pub fn is_shared(&self) -> bool {
        !self.acl.is_empty()
    }

    /// Points the tuple at the version laid out by `map`, committed at `now`
    /// — the anchor write of a close: root hash, size, modification time and
    /// version count move together, and the encoded manifest rides along
    /// when [`manifest_rides_inline`] says so — in which case this tuple is
    /// the only place it is stored.
    pub fn commit_version(&mut self, map: &ChunkMap, now: SimInstant) {
        let manifest = map.encode();
        self.version_hash = Some(sha256(&manifest));
        self.manifest = manifest_rides_inline(&manifest).then(|| manifest.into());
        self.size = map.file_len();
        self.modified_at = now;
        self.version_count += 1;
    }

    /// Points the tuple at the current version of `src`, committed at `now`
    /// — the anchor write of a manifest-only copy. The inline manifest, if
    /// `src` carries one, is the same bytes under the same root hash, so
    /// [`manifest_rides_inline`] answers for the copy what it answered for
    /// the source.
    pub fn commit_copy_of(&mut self, src: &FileMetadata, now: SimInstant) {
        debug_assert!(src.manifest.as_deref().is_none_or(manifest_rides_inline));
        self.version_hash = src.version_hash;
        self.manifest = src.manifest.clone();
        self.size = src.size;
        self.modified_at = now;
        self.version_count += 1;
    }

    /// The chunk map of the current version, when the tuple carries it
    /// inline. The bytes already hash to `version_hash`; an error means the
    /// writer anchored something that is not a manifest.
    pub fn inline_manifest(&self) -> Result<Option<ChunkMap>, crate::error::ScfsError> {
        let decoded = self.manifest.as_deref().map(ChunkMap::decode).transpose();
        decoded.map_err(|e| {
            crate::error::ScfsError::invalid(format!(
                "corrupt metadata tuple: inline manifest: {e}"
            ))
        })
    }

    /// Serializes the metadata tuple (stored in the coordination service or
    /// in a private name space; ~1 KB per the paper's capacity analysis,
    /// which [`INLINE_MANIFEST_MAX`] preserves).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.path);
        w.put_u8(match self.file_type {
            FileType::File => 0,
            FileType::Directory => 1,
        });
        w.put_u64(self.size);
        w.put_str(self.owner.as_str());
        w.put_u64(self.acl.len() as u64);
        for (account, perm) in self.acl.grants() {
            w.put_str(account.as_str());
            w.put_u8(match perm {
                Permission::Read => 0,
                Permission::Write => 1,
            });
        }
        w.put_u64(self.created_at.as_nanos());
        w.put_u64(self.modified_at.as_nanos());
        w.put_str(&self.storage_id);
        match &self.version_hash {
            Some(h) => {
                w.put_u8(1);
                w.put_bytes(h);
            }
            None => {
                w.put_u8(0);
            }
        }
        match &self.manifest {
            Some(manifest) => {
                w.put_u8(1);
                w.put_bytes(manifest);
            }
            None => {
                w.put_u8(0);
            }
        }
        w.put_u64(self.version_count);
        w.put_u8(u8::from(self.deleted));
        w.finish()
    }

    /// Deserializes a metadata tuple.
    ///
    /// Fails closed, like [`ChunkMap::decode`]: every tag must be one the
    /// encoder writes, trailing bytes are rejected, and an inline manifest
    /// is bounded by [`INLINE_MANIFEST_MAX`] before it is copied and must
    /// hash to the tuple's `version_hash` — a tuple whose inline copy names
    /// anything but the anchored version is corrupt, not a second opinion.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let path = r.get_str()?;
        let file_type = if Self::get_tag(&mut r, "file type")? {
            FileType::Directory
        } else {
            FileType::File
        };
        let size = r.get_u64()?;
        let owner = AccountId::new(r.get_str()?);
        let grant_count = r.get_u64()?;
        let mut acl = Acl::private();
        let mut last: Option<AccountId> = None;
        for _ in 0..grant_count {
            let account = AccountId::new(r.get_str()?);
            let perm = if Self::get_tag(&mut r, "permission")? {
                Permission::Write
            } else {
                Permission::Read
            };
            // The encoder writes grants in account order, once each; any
            // other sequence is a second encoding of some ACL.
            if last.is_some_and(|last| last >= account) {
                return Err(DecodeError {
                    reason: format!("ACL grant for {account} is out of order"),
                });
            }
            acl.grant(account.clone(), perm);
            last = Some(account);
        }
        let created_at = SimInstant::from_nanos(r.get_u64()?);
        let modified_at = SimInstant::from_nanos(r.get_u64()?);
        let storage_id = r.get_str()?;
        let version_hash = if Self::get_tag(&mut r, "version hash")? {
            let bytes = r.get_bytes_max(32)?;
            Some(ContentHash::try_from(bytes).map_err(|_| DecodeError {
                reason: "version hash must be 32 bytes".into(),
            })?)
        } else {
            None
        };
        let manifest = if Self::get_tag(&mut r, "inline manifest")? {
            let bytes = r.get_bytes_max(INLINE_MANIFEST_MAX)?;
            match version_hash {
                Some(hash) if hash == sha256(bytes) => Some(Arc::from(bytes)),
                Some(_) => {
                    return Err(DecodeError {
                        reason: "inline manifest does not hash to the version hash".into(),
                    })
                }
                None => {
                    return Err(DecodeError {
                        reason: "inline manifest without a version hash".into(),
                    })
                }
            }
        } else {
            None
        };
        let version_count = r.get_u64()?;
        let deleted = Self::get_tag(&mut r, "deleted")?;
        if !r.is_exhausted() {
            return Err(DecodeError {
                reason: format!("{} trailing bytes after metadata tuple", r.remaining()),
            });
        }
        Ok(FileMetadata {
            path,
            file_type,
            size,
            owner,
            acl,
            created_at,
            modified_at,
            storage_id,
            version_hash,
            manifest,
            version_count,
            deleted,
        })
    }

    /// Reads a one-byte tag of the tuple encoding. Every tag is binary;
    /// anything but 0 or 1 is a corrupt tuple, never a default.
    fn get_tag(r: &mut Reader<'_>, what: &str) -> Result<bool, DecodeError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError {
                reason: format!("unknown {what} tag {tag}"),
            }),
        }
    }
}

/// Flags passed to `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing (requires the write lock in shared modes).
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Truncate the file to zero length on open.
    pub truncate: bool,
}

impl OpenFlags {
    /// Read-only open.
    pub fn read_only() -> Self {
        OpenFlags {
            read: true,
            ..OpenFlags::default()
        }
    }

    /// Read-write open (no create).
    pub fn read_write() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..OpenFlags::default()
        }
    }

    /// Create (or open) for writing.
    pub fn create() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: true,
            ..OpenFlags::default()
        }
    }

    /// Create and truncate for writing.
    pub fn create_truncate() -> Self {
        OpenFlags {
            read: true,
            write: true,
            create: true,
            truncate: true,
        }
    }
}

/// An open-file handle returned by `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle(pub u64);

/// Normalizes a path: must be absolute, collapses duplicate slashes and
/// strips a trailing slash (except for the root).
pub fn normalize_path(path: &str) -> Result<String, crate::error::ScfsError> {
    if !path.starts_with('/') {
        return Err(crate::error::ScfsError::invalid(format!(
            "path must be absolute: {path}"
        )));
    }
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    if parts.is_empty() {
        Ok("/".to_string())
    } else {
        Ok(format!("/{}", parts.join("/")))
    }
}

/// Returns the parent directory of a normalized path (`/` for top-level entries).
pub fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(idx) => path[..idx].to_string(),
    }
}

/// Whether the normalized `path` is `root` or lies in the subtree under it:
/// `/a` and `/a/b` are under `/a`, the sibling `/ab` is not. The one boundary
/// rule of everything `rename` moves or invalidates on the client.
pub fn is_under(path: &str, root: &str) -> bool {
    path.strip_prefix(root)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Whether the normalized `path` is a direct child of the directory `dir`:
/// `/a/a` and `/a/b` are children of `/a`; `/a` itself, the grandchild
/// `/a/a/x` and the sibling `/ab` are not. The one rule `readdir` lists by,
/// in the private name space and on the coordination service alike.
pub fn is_child_of(path: &str, dir: &str) -> bool {
    let dir = if dir == "/" { "" } else { dir };
    path.strip_prefix(dir)
        .and_then(|rest| rest.strip_prefix('/'))
        .is_some_and(|name| !name.is_empty() && !name.contains('/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::types::Permission;
    use scfs_crypto::sha256;

    #[test]
    fn metadata_encode_decode_round_trip() {
        let mut md = FileMetadata::new_file(
            "/docs/report.odt",
            "alice".into(),
            "file-42".into(),
            SimInstant::from_secs(100),
        );
        md.size = 1234;
        md.version_hash = Some(sha256(b"contents"));
        md.version_count = 3;
        md.acl.grant("bob".into(), Permission::Read);
        md.deleted = false;
        let decoded = FileMetadata::decode(&md.encode()).unwrap();
        assert_eq!(decoded, md);
    }

    #[test]
    fn directory_metadata_round_trips() {
        let md = FileMetadata::new_directory("/docs", "alice".into(), SimInstant::from_secs(5));
        let decoded = FileMetadata::decode(&md.encode()).unwrap();
        assert_eq!(decoded, md);
        assert_eq!(decoded.file_type, FileType::Directory);
        assert!(!decoded.is_shared());
    }

    #[test]
    fn metadata_tuple_is_about_1kb_with_long_names() {
        // The paper assumes ~1 KB tuples with 100-byte file names — also
        // with the largest manifest that still rides inline.
        let long_name = format!("/{}", "d".repeat(100));
        let mut md =
            FileMetadata::new_file(&long_name, "alice".into(), "id".into(), SimInstant::EPOCH);
        md.acl.grant("bob".into(), Permission::Write);
        md.commit_version(&ChunkMap::build(&[7u8; 12_000], 1000), SimInstant::EPOCH);
        assert!(md.inline_manifest().unwrap().is_some());
        let encoded = md.encode();
        assert!(encoded.len() < 1024, "tuple was {} bytes", encoded.len());
    }

    #[test]
    fn small_manifests_ride_inline_and_large_ones_do_not() {
        let now = SimInstant::from_secs(9);
        let mut md = FileMetadata::new_file("/f", "alice".into(), "id".into(), SimInstant::EPOCH);
        // 12 fixed-size chunks encode to 24 + 12 * 40 = 504 bytes: inline.
        let twelve = ChunkMap::build(&[1u8; 12_000], 1000);
        md.commit_version(&twelve, now);
        assert_eq!(md.inline_manifest().unwrap(), Some(twelve.clone()));
        assert_eq!(md.version_hash, Some(twelve.root_hash()));
        assert_eq!(
            (md.size, md.modified_at, md.version_count),
            (12_000, now, 1)
        );
        assert_eq!(FileMetadata::decode(&md.encode()).unwrap(), md);
        // 13 chunks are 544 bytes: the anchor keeps the hash alone, and the
        // stale inline copy of the previous version is gone.
        let thirteen = ChunkMap::build(&[1u8; 13_000], 1000);
        md.commit_version(&thirteen, now);
        assert_eq!(md.inline_manifest().unwrap(), None);
        assert_eq!(md.version_hash, Some(thirteen.root_hash()));
        assert_eq!(FileMetadata::decode(&md.encode()).unwrap(), md);
        // Content-defined maps carry an extent per chunk: 9 fit, 10 do not.
        let cdc = |chunks: usize| {
            let data = random_bytes(8192, 4);
            (0..data.len())
                .map(|len| ChunkMap::build_cdc(&data[..len], &CdcParams::with_avg(256)))
                .find(|map| map.chunk_count() == chunks)
                .expect("some prefix cuts into that many chunks")
        };
        assert_eq!(cdc(9).encode().len(), 33 + 9 * 48);
        md.commit_version(&cdc(9), now);
        assert_eq!(md.inline_manifest().unwrap(), Some(cdc(9)));
        md.commit_version(&cdc(10), now);
        assert_eq!(md.inline_manifest().unwrap(), None);
        // A manifest-only copy carries the source's inline manifest along.
        md.commit_version(&twelve, now);
        let mut copy = FileMetadata::new_file("/g", "alice".into(), "id2".into(), now);
        copy.commit_copy_of(&md, now);
        assert_eq!(copy.inline_manifest().unwrap(), Some(twelve));
        assert_eq!((copy.version_hash, copy.size), (md.version_hash, md.size));
        assert_eq!(FileMetadata::decode(&copy.encode()).unwrap(), copy);
    }

    /// Hand-encodes a metadata tuple field by field, so each decoder check
    /// can be hit with exactly one thing wrong.
    struct RawTuple {
        file_type: u8,
        grants: Vec<(&'static str, u8)>,
        hash_tag: u8,
        hash: Vec<u8>,
        manifest_tag: u8,
        manifest: Vec<u8>,
        deleted: u8,
        trailing: Vec<u8>,
    }

    impl RawTuple {
        /// A well-formed shared file whose one-chunk manifest rides inline.
        fn valid() -> Self {
            let manifest = ChunkMap::build(&[5u8; 300], 1000).encode();
            RawTuple {
                file_type: 0,
                grants: vec![("bob", 1), ("carol", 0)],
                hash_tag: 1,
                hash: sha256(&manifest).to_vec(),
                manifest_tag: 1,
                manifest,
                deleted: 0,
                trailing: Vec::new(),
            }
        }

        fn encode(&self) -> Vec<u8> {
            let mut w = Writer::new();
            w.put_str("/shared/f").put_u8(self.file_type).put_u64(300);
            w.put_str("alice").put_u64(self.grants.len() as u64);
            for (account, permission) in &self.grants {
                w.put_str(account).put_u8(*permission);
            }
            w.put_u64(1).put_u64(2).put_str("alice-f1");
            w.put_u8(self.hash_tag);
            if self.hash_tag != 0 {
                w.put_bytes(&self.hash);
            }
            w.put_u8(self.manifest_tag);
            if self.manifest_tag != 0 {
                w.put_bytes(&self.manifest);
            }
            w.put_u64(1).put_u8(self.deleted);
            let mut bytes = w.finish();
            bytes.extend_from_slice(&self.trailing);
            bytes
        }

        fn decode_err(&self) -> String {
            FileMetadata::decode(&self.encode())
                .expect_err("a corrupt tuple decoded")
                .reason
        }
    }

    #[test]
    fn hand_encoded_tuple_matches_the_encoder() {
        let raw = RawTuple::valid();
        let md = FileMetadata::decode(&raw.encode()).unwrap();
        assert_eq!(md.encode(), raw.encode());
        assert_eq!(md.acl.len(), 2);
        assert!(md.inline_manifest().unwrap().is_some());
    }

    #[test]
    fn unknown_tags_are_rejected_not_defaulted() {
        // Each of these used to decode: any non-zero file type as a
        // directory, any non-zero permission as `Write`, a version-hash tag
        // of 2 as "no version", a deleted tag of 7 as a tombstone.
        type Corrupt = fn(&mut RawTuple);
        let cases: [(&str, Corrupt); 5] = [
            ("file type", |t| t.file_type = 2),
            ("permission", |t| t.grants[1].1 = 0xFF),
            ("version hash", |t| t.hash_tag = 2),
            ("inline manifest", |t| t.manifest_tag = 3),
            ("deleted", |t| t.deleted = 7),
        ];
        for (what, corrupt) in cases {
            let mut raw = RawTuple::valid();
            corrupt(&mut raw);
            let reason = raw.decode_err();
            assert!(reason.contains(what), "{what}: {reason}");
        }
    }

    #[test]
    fn trailing_garbage_and_reordered_grants_are_rejected() {
        // Two distinct blobs must never decode to the same tuple.
        let mut raw = RawTuple::valid();
        raw.trailing = b"x".to_vec();
        assert!(raw.decode_err().contains("trailing"));
        let mut raw = RawTuple::valid();
        raw.grants.reverse();
        assert!(raw.decode_err().contains("out of order"));
        let mut raw = RawTuple::valid();
        raw.grants.push(("carol", 1));
        assert!(raw.decode_err().contains("out of order"));
    }

    #[test]
    fn inline_manifest_must_hash_to_the_version_hash() {
        // One flipped bit in the inline copy: the anchor names one version,
        // and this is not it.
        let mut raw = RawTuple::valid();
        raw.manifest[30] ^= 1;
        assert!(raw.decode_err().contains("does not hash"));
        // The same for a well-formed manifest of some other version.
        let mut raw = RawTuple::valid();
        raw.manifest = ChunkMap::build(&[6u8; 300], 1000).encode();
        assert!(raw.decode_err().contains("does not hash"));
        // An inline manifest with no version hash to check it against.
        let mut raw = RawTuple::valid();
        raw.hash_tag = 0;
        assert!(raw.decode_err().contains("without a version hash"));
        // A version hash of the wrong width.
        let mut raw = RawTuple::valid();
        raw.hash.truncate(31);
        assert!(raw.decode_err().contains("32 bytes"));
    }

    #[test]
    fn oversized_inline_manifest_is_rejected_before_it_is_copied() {
        // The hash matches, so only the size bound can reject it.
        let mut raw = RawTuple::valid();
        raw.manifest = ChunkMap::build(&[1u8; 13_000], 1000).encode();
        raw.hash = sha256(&raw.manifest).to_vec();
        assert!(raw.manifest.len() > INLINE_MANIFEST_MAX);
        assert!(raw.decode_err().contains("exceeds"));
        // A length prefix claiming far more than the buffer holds.
        let mut bytes = RawTuple::valid().encode();
        let at = bytes.len() - RawTuple::valid().manifest.len() - 9 - 8;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(FileMetadata::decode(&bytes).is_err());
    }

    #[test]
    fn shared_flag_follows_acl() {
        let mut md = FileMetadata::new_file("/f", "alice".into(), "id".into(), SimInstant::EPOCH);
        assert!(!md.is_shared());
        md.acl.grant("bob".into(), Permission::Write);
        assert!(md.is_shared());
    }

    #[test]
    fn open_flag_constructors() {
        assert!(OpenFlags::read_only().read);
        assert!(!OpenFlags::read_only().write);
        assert!(OpenFlags::create().create);
        assert!(OpenFlags::create_truncate().truncate);
        assert!(OpenFlags::read_write().write);
    }

    #[test]
    fn path_normalization() {
        assert_eq!(normalize_path("/a//b/").unwrap(), "/a/b");
        assert_eq!(normalize_path("/").unwrap(), "/");
        assert_eq!(normalize_path("/a/./b/../c").unwrap(), "/a/c");
        assert!(normalize_path("relative/path").is_err());
    }

    #[test]
    fn parent_and_basename() {
        assert_eq!(parent_of("/a/b/c"), "/a/b");
        assert_eq!(parent_of("/a"), "/");
    }

    #[test]
    fn corrupted_metadata_fails_to_decode() {
        let md = FileMetadata::new_file("/f", "a".into(), "id".into(), SimInstant::EPOCH);
        let mut bytes = md.encode();
        bytes.truncate(bytes.len() / 2);
        assert!(FileMetadata::decode(&bytes).is_err());
    }

    #[test]
    fn chunk_map_splits_and_round_trips() {
        let data = vec![3u8; 2500];
        let map = ChunkMap::build(&data, 1000);
        assert_eq!(map.file_len(), 2500);
        assert_eq!(map.chunk_count(), 3);
        assert_eq!(map.byte_range(0), 0..1000);
        assert_eq!(map.byte_range(2), 2000..2500);
        let decoded = ChunkMap::decode(&map.encode()).unwrap();
        assert_eq!(decoded, map);
        assert_eq!(decoded.root_hash(), map.root_hash());
    }

    #[test]
    fn chunk_map_edge_sizes() {
        // Empty file: no chunks, but still a well-defined root hash.
        let empty = ChunkMap::empty(1000);
        assert_eq!(empty.chunk_count(), 0);
        assert_eq!(ChunkMap::decode(&empty.encode()).unwrap(), empty);
        // Exactly one chunk, one byte less, one byte more.
        assert_eq!(ChunkMap::build(&vec![0; 1000], 1000).chunk_count(), 1);
        assert_eq!(ChunkMap::build(&vec![0; 999], 1000).chunk_count(), 1);
        let plus = ChunkMap::build(&vec![0; 1001], 1000);
        assert_eq!(plus.chunk_count(), 2);
        assert_eq!(plus.byte_range(1), 1000..1001);
    }

    #[test]
    fn chunks_for_range_maps_bytes_to_chunk_indices() {
        let map = ChunkMap::build(&vec![0u8; 2500], 1000);
        assert_eq!(map.chunks_for_range(0, 1), 0..1);
        assert_eq!(map.chunks_for_range(999, 2), 0..2);
        assert_eq!(map.chunks_for_range(1000, 1000), 1..2);
        assert_eq!(map.chunks_for_range(0, 2500), 0..3);
        // Clamped to EOF, empty beyond it, zero-length is empty.
        assert_eq!(map.chunks_for_range(2400, 5000), 2..3);
        assert_eq!(map.chunks_for_range(2500, 10), 0..0);
        assert_eq!(map.chunks_for_range(500, 0), 0..0);
        // Huge lengths must not overflow.
        assert_eq!(map.chunks_for_range(1, usize::MAX), 0..3);
        assert_eq!(map.chunk_len(2), 500);
    }

    #[test]
    fn identical_chunks_share_hashes() {
        let data = vec![7u8; 3000];
        let map = ChunkMap::build(&data, 1000);
        assert_eq!(map.chunks()[0], map.chunks()[1]);
        assert_eq!(map.chunks()[1], map.chunks()[2]);
    }

    #[test]
    fn dirty_chunks_are_only_the_changed_ones() {
        let mut data = vec![1u8; 4000];
        let v1 = ChunkMap::build(&data, 1000);
        // With no previous version every chunk is dirty (within-version
        // dedup happens at upload time in the backend).
        assert_eq!(v1.dirty_chunks(None).len(), 4);
        data[2500] = 9;
        let v2 = ChunkMap::build(&data, 1000);
        assert_eq!(v2.dirty_chunks(Some(&v1)), vec![2]);
        // An append adds exactly one dirty chunk.
        data.extend_from_slice(&[5u8; 10]);
        let v3 = ChunkMap::build(&data, 1000);
        assert_eq!(v3.dirty_chunks(Some(&v2)), vec![4]);
        // Same content: nothing dirty.
        let v4 = ChunkMap::build(&data, 1000);
        assert!(v4.dirty_chunks(Some(&v3)).is_empty());
        assert_eq!(v4.root_hash(), v3.root_hash());
    }

    #[test]
    fn chunk_map_rejects_inconsistent_encodings() {
        let map = ChunkMap::build(&[0u8; 100], 50);
        let mut bytes = map.encode();
        bytes.truncate(bytes.len() / 2);
        assert!(ChunkMap::decode(&bytes).is_err());
        // A manifest whose chunk count cannot cover the file is rejected.
        let mut w = Writer::new();
        w.put_u64(100).put_u64(50).put_u64(1);
        w.put_bytes(&[0u8; 32]);
        assert!(ChunkMap::decode(&w.finish()).is_err());
    }

    /// Deterministic pseudo-random bytes for the CDC tests — constant or
    /// periodic fills would make every chunk identical.
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        sim_core::rng::DetRng::new(seed).bytes(len)
    }

    #[test]
    fn cdc_extents_tile_the_file_within_bounds() {
        let params = CdcParams::with_avg(1024);
        let data = random_bytes(100_000, 7);
        let map = ChunkMap::build_cdc(&data, &params);
        assert_eq!(map.file_len(), 100_000);
        assert!(map.chunk_count() > 0);
        let mut covered = 0usize;
        for index in 0..map.chunk_count() {
            let range = map.byte_range(index);
            assert_eq!(range.start, covered, "extents must tile contiguously");
            assert!(!range.is_empty());
            assert!(range.len() <= params.max_size, "chunk exceeds max_size");
            if index + 1 < map.chunk_count() {
                assert!(
                    range.len() >= params.min_size,
                    "non-final chunk below min_size"
                );
            }
            assert_eq!(map.chunks()[index], sha256(&data[range.clone()]));
            covered = range.end;
        }
        assert_eq!(covered, data.len());
        // The average lands in the right ballpark (within 4x either way).
        let avg = data.len() / map.chunk_count();
        assert!(
            avg >= params.avg_size / 4 && avg <= params.avg_size * 4,
            "average chunk of {avg} bytes is far from the {} target",
            params.avg_size
        );
    }

    #[test]
    fn cdc_boundaries_are_deterministic_and_content_defined() {
        let params = CdcParams::with_avg(1024);
        let data = random_bytes(50_000, 3);
        let a = ChunkMap::build_cdc(&data, &params);
        let b = ChunkMap::build_cdc(&data, &params);
        assert_eq!(a, b, "same content, same boundaries");
        assert_eq!(a.root_hash(), b.root_hash());
        // Empty files still work.
        let empty = ChunkMap::build_cdc(&[], &params);
        assert_eq!(empty.chunk_count(), 0);
        assert_eq!(ChunkMap::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn cdc_midfile_insert_shifts_only_o_edit_chunks() {
        let params = CdcParams::with_avg(1024);
        let data = random_bytes(100_000, 11);
        let v1 = ChunkMap::build_cdc(&data, &params);
        let mut edited = data.clone();
        let mid = edited.len() / 2;
        edited.splice(mid..mid, random_bytes(64, 99));
        let v2 = ChunkMap::build_cdc(&edited, &params);
        let dirty = v2.dirty_chunks(Some(&v1));
        let dirty_bytes: usize = dirty.iter().map(|&i| v2.chunk_len(i)).sum();
        assert!(
            dirty_bytes <= 64 + 3 * params.max_size,
            "a 64-byte insert dirtied {dirty_bytes} bytes across {} chunks",
            dirty.len()
        );
        // Fixed-size chunking re-uploads the whole shifted tail instead.
        let f1 = ChunkMap::build(&data, 1024);
        let f2 = ChunkMap::build(&edited, 1024);
        assert!(
            f2.dirty_chunks(Some(&f1)).len() > f2.chunk_count() / 3,
            "fixed-size chunking should dirty the tail after a mid-file insert"
        );
    }

    #[test]
    fn v2_manifest_round_trips_with_extent_table() {
        let params = CdcParams::with_avg(512);
        let data = random_bytes(20_000, 5);
        let map = ChunkMap::build_cdc(&data, &params);
        let encoded = map.encode();
        assert_eq!(&encoded[..8], &u64::MAX.to_le_bytes(), "v2 magic");
        let decoded = ChunkMap::decode(&encoded).unwrap();
        assert_eq!(decoded, map);
        assert_eq!(decoded.root_hash(), map.root_hash());
        for index in 0..map.chunk_count() {
            assert_eq!(decoded.byte_range(index), map.byte_range(index));
        }
    }

    #[test]
    fn fixed_maps_still_encode_the_v1_byte_layout() {
        // Root-hash stability across the extent refactor: a fixed-size map
        // must keep producing the exact pre-extent v1 bytes, so committed
        // registries and anchors keep resolving.
        let data = vec![3u8; 2500];
        let map = ChunkMap::build(&data, 1000);
        let mut w = Writer::new();
        w.put_u64(2500).put_u64(1000).put_u64(3);
        for chunk in data.chunks(1000) {
            w.put_bytes(&sha256(chunk));
        }
        assert_eq!(map.encode(), w.finish());
    }

    #[test]
    fn crafted_file_len_manifest_fails_closed() {
        // The old decoder called Vec::with_capacity(count) before reading a
        // single hash: `file_len = u64::MAX, chunk_size = 1, count = 2^64-1`
        // aborted the process on allocation. It must now fail closed.
        let mut w = Writer::new();
        w.put_u64(u64::MAX - 1).put_u64(1).put_u64(u64::MAX - 1);
        assert!(ChunkMap::decode(&w.finish()).is_err());
        // Bounded file lengths with absurd counts fail too (count is bounded
        // by the actual input length before any allocation).
        let mut w = Writer::new();
        w.put_u64(1 << 39).put_u64(1).put_u64(1 << 39);
        assert!(ChunkMap::decode(&w.finish()).is_err());
        // And a v2 header claiming 2^50 chunks in a 100-byte blob.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_u8(2);
        w.put_u64(1 << 30).put_u64(1024).put_u64(1 << 50);
        assert!(ChunkMap::decode(&w.finish()).is_err());
        // A plausible count over an over-long file is rejected on file_len.
        let mut w = Writer::new();
        w.put_u64(MAX_FILE_LEN + 1)
            .put_u64(u32::MAX as u64)
            .put_u64((MAX_FILE_LEN + 1).div_ceil(u32::MAX as u64));
        assert!(ChunkMap::decode(&w.finish()).is_err());
    }

    #[test]
    fn trailing_garbage_after_a_manifest_is_rejected() {
        // Two distinct blobs must never decode to the same manifest: bytes
        // past the last hash are an error, in both versions.
        let fixed = ChunkMap::build(&[7u8; 2500], 1000);
        let mut bytes = fixed.encode();
        assert!(ChunkMap::decode(&bytes).is_ok());
        bytes.push(0);
        assert!(ChunkMap::decode(&bytes).is_err());

        let cdc = ChunkMap::build_cdc(&random_bytes(5000, 1), &CdcParams::with_avg(512));
        let mut bytes = cdc.encode();
        assert!(ChunkMap::decode(&bytes).is_ok());
        bytes.extend_from_slice(b"junk");
        assert!(ChunkMap::decode(&bytes).is_err());
    }

    #[test]
    fn v2_rejects_inconsistent_extents() {
        let map = ChunkMap::build_cdc(&random_bytes(5000, 2), &CdcParams::with_avg(512));
        let good = map.encode();
        // Corrupt the first extent length (bytes 29..37: magic 8 + version 1
        // + file_len 8 + chunk_size 8 + count 8 = offset 33... locate by
        // re-encoding with a wrong total instead).
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_u8(2);
        w.put_u64(map.file_len() + 1); // extents no longer cover the file
        w.put_u64(512).put_u64(map.chunk_count() as u64);
        for index in 0..map.chunk_count() {
            w.put_u64(map.chunk_len(index) as u64);
            w.put_bytes(&map.chunks()[index]);
        }
        assert!(ChunkMap::decode(&w.finish()).is_err());
        // A zero-length extent is rejected.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_u8(2);
        w.put_u64(32).put_u64(512).put_u64(2);
        w.put_u64(0);
        w.put_bytes(&sha256(b"a"));
        w.put_u64(32);
        w.put_bytes(&sha256(b"b"));
        assert!(ChunkMap::decode(&w.finish()).is_err());
        // An unsupported version byte is rejected.
        let mut bad = good.clone();
        bad[8] = 9;
        assert!(ChunkMap::decode(&bad).is_err());
        // The untouched encoding still decodes.
        assert!(ChunkMap::decode(&good).is_ok());
    }
}
