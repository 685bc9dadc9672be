//! SCFS agent configuration: operation modes, cache sizes, garbage
//! collection policy and the knobs varied in the paper's §4.4.

use sim_core::latency::LatencyModel;
use sim_core::time::SimDuration;
use sim_core::units::Bytes;

pub use crate::cache::CacheConfig;
use crate::types::{CdcParams, ChunkMap, CutRule};

/// How the data path splits file contents into chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkingMode {
    /// Fixed-size chunks of [`ScfsConfig::chunk_size`] bytes. Serializes as
    /// v1 manifests (the pre-extent format, so committed registries keep
    /// working), but an insert in the middle of a file shifts every
    /// subsequent boundary and re-uploads the whole tail.
    Fixed,
    /// Content-defined boundaries (Gear/FastCDC rolling hash) with the given
    /// min/avg/max knobs: an insert or delete moves only O(edit) chunks
    /// because the shifted tail re-aligns to identical chunk hashes.
    /// Serializes as v2 manifests carrying the per-chunk extent table.
    Cdc(CdcParams),
}

/// The three modes of operation supported by the prototype (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `close` blocks until the file data is in the cloud(s) and its root
    /// hash is anchored in the coordination service (full
    /// consistency-on-close). The lock release behind the anchor is sent but
    /// not waited for; a write-open of the file by the same agent waits for
    /// it instead.
    Blocking,
    /// `close` returns once the data is safely on the local disk and queued
    /// for upload; the metadata update and unlock happen when the background
    /// upload completes, so mutual exclusion and consistency-on-close for
    /// *observers* are preserved, at reduced durability for the writer.
    NonBlocking,
    /// Single-user mode: no coordination service at all, all metadata lives
    /// in a private name space, uploads happen in the background (a design
    /// similar to S3QL but optionally cloud-of-clouds backed).
    NonSharing,
}

impl Mode {
    /// Short label used by the experiment harnesses ("B", "NB", "NS").
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Blocking => "B",
            Mode::NonBlocking => "NB",
            Mode::NonSharing => "NS",
        }
    }

    /// Whether this mode uses the coordination service.
    pub fn uses_coordination(&self) -> bool {
        !matches!(self, Mode::NonSharing)
    }

    /// Whether `close` waits for the cloud upload.
    pub fn blocking_close(&self) -> bool {
        matches!(self, Mode::Blocking)
    }
}

/// Garbage-collection policy (paper §2.5.3): once an agent has written more
/// than `written_bytes_threshold`, a background collector releases all but
/// the newest `versions_to_keep` versions of each file it owns, as well as
/// the files the user removed. Physical reclamation goes through the
/// refcounted chunk store's two-phase release journal
/// ([`crate::chunkstore`]): the collector appends release intents, then
/// replays the journal to delete blobs whose reference count hit zero —
/// failed deletes stay pending and are retried in later cycles instead of
/// leaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Number of written bytes (W) that triggers a collection cycle.
    pub written_bytes_threshold: Bytes,
    /// Number of versions (V) to keep per file.
    pub versions_to_keep: usize,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            written_bytes_threshold: Bytes::mib(256),
            versions_to_keep: 4,
        }
    }
}

/// Full SCFS agent configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScfsConfig {
    /// Operation mode.
    pub mode: Mode,
    /// Expiration time of the short-lived metadata cache (paper §2.5.1 and
    /// Figure 10(a); 500 ms in all headline experiments).
    pub metadata_cache_expiry: SimDuration,
    /// The two-level chunk cache: the memory and disk capacities
    /// ([`CacheConfig`]).
    pub cache: CacheConfig,
    /// Whether private name spaces are used for non-shared files (§2.7,
    /// Figure 10(b)). The headline experiments disable PNS (worst case).
    pub private_name_spaces: bool,
    /// Chunk size of the content-addressed data path: the fixed chunk size
    /// under [`ChunkingMode::Fixed`] (and the conventional reference point
    /// for the CDC knobs). Only dirty chunks are uploaded on close (missing
    /// chunks downloaded on read).
    pub chunk_size: Bytes,
    /// How file contents are cut into chunks: fixed-size strides or
    /// content-defined (shift-resistant) boundaries.
    pub chunking: ChunkingMode,
    /// Maximum number of chunk transfers the engine keeps in flight at once:
    /// a dirty close or a cold range read moves its chunks in waves of this
    /// many parallel transfers, so a 16-chunk upload costs
    /// ~⌈16 / max_parallel_transfers⌉ chunk latencies of wall-clock.
    pub max_parallel_transfers: usize,
    /// Maximum number of background version commits (non-blocking closes)
    /// in flight at once. A `close` that would exceed the bound blocks until
    /// the earliest pending upload completes — explicit backpressure instead
    /// of an unbounded implicit queue (counted in
    /// [`crate::agent::AgentStats::backpressure_stalls`]).
    pub max_pending_uploads: usize,
    /// Garbage-collection policy.
    pub gc: GcConfig,
    /// Per-system-call dispatch overhead (the FUSE-J user-level file system
    /// overhead the paper controls for with its LocalFS baseline).
    pub syscall_overhead: LatencyModel,
}

impl ScfsConfig {
    /// The configuration used by the paper's headline experiments: blocking
    /// mode, 500 ms metadata cache, no PNS.
    pub fn paper_default(mode: Mode) -> Self {
        ScfsConfig {
            mode,
            metadata_cache_expiry: SimDuration::from_millis(500),
            cache: CacheConfig::default(),
            private_name_spaces: false,
            chunk_size: Bytes::new(crate::types::DEFAULT_CHUNK_SIZE as u64),
            chunking: ChunkingMode::Fixed,
            max_parallel_transfers: crate::transfer::DEFAULT_MAX_PARALLEL,
            max_pending_uploads: 64,
            gc: GcConfig::default(),
            syscall_overhead: LatencyModel::Uniform {
                lo_millis: 0.11,
                hi_millis: 0.16,
            },
        }
    }

    /// A configuration with no syscall overhead and no caches expiring, for
    /// functional unit tests.
    pub fn test(mode: Mode) -> Self {
        ScfsConfig {
            syscall_overhead: LatencyModel::zero(),
            ..ScfsConfig::paper_default(mode)
        }
    }

    /// Replaces the cache tiers' capacities.
    pub fn with_cache_capacities(mut self, memory: Bytes, disk: Bytes) -> Self {
        self.cache = self.cache.with_capacities(memory, disk);
        self
    }

    /// Switches to content-defined chunking with [`ScfsConfig::chunk_size`]
    /// as the target average (min `avg/4`, max `4*avg`).
    pub fn with_cdc(mut self) -> Self {
        self.chunking = ChunkingMode::Cdc(CdcParams::with_avg(self.chunk_size.get() as usize));
        self
    }

    /// The cut rule this configuration's chunking mode prescribes — the one
    /// seam every writer (close, fsync, sync) chunks through.
    pub fn cut_rule(&self) -> CutRule {
        match self.chunking {
            ChunkingMode::Fixed => CutRule::Fixed(self.chunk_size.get() as usize),
            ChunkingMode::Cdc(params) => CutRule::Cdc(params),
        }
    }

    /// Cuts all of `data` into the chunk map of [`ScfsConfig::cut_rule`].
    pub fn chunk_map(&self, data: &[u8]) -> ChunkMap {
        ChunkMap::rebuild(None, data, 0..0, self.cut_rule()).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_and_properties() {
        assert_eq!(Mode::Blocking.label(), "B");
        assert_eq!(Mode::NonBlocking.label(), "NB");
        assert_eq!(Mode::NonSharing.label(), "NS");
        assert!(Mode::Blocking.uses_coordination());
        assert!(Mode::NonBlocking.uses_coordination());
        assert!(!Mode::NonSharing.uses_coordination());
        assert!(Mode::Blocking.blocking_close());
        assert!(!Mode::NonBlocking.blocking_close());
    }

    #[test]
    fn paper_default_matches_section_4_1() {
        let c = ScfsConfig::paper_default(Mode::Blocking);
        assert_eq!(c.metadata_cache_expiry, SimDuration::from_millis(500));
        assert!(!c.private_name_spaces);
        assert_eq!(c.gc.versions_to_keep, 4);
        assert_eq!(c.cache.memory_capacity, Bytes::mib(512));
        assert_eq!(c.cache.disk_capacity, Bytes::gib(16));
    }

    #[test]
    fn cache_builders_override_policies_and_capacities() {
        let c =
            ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::mib(64), Bytes::gib(1));
        assert_eq!(c.cache.memory_capacity, Bytes::mib(64));
        assert_eq!(c.cache.disk_capacity, Bytes::gib(1));
    }

    #[test]
    fn default_chunk_size_is_1_mib() {
        let c = ScfsConfig::paper_default(Mode::Blocking);
        assert_eq!(c.chunk_size, Bytes::mib(1));
    }

    #[test]
    fn transfer_knobs_default_to_parallel_with_prefetch() {
        let c = ScfsConfig::paper_default(Mode::Blocking);
        assert_eq!(c.max_parallel_transfers, 4);
        assert!(c.max_pending_uploads >= 1);
    }

    #[test]
    fn chunking_defaults_to_fixed_and_with_cdc_derives_knobs() {
        let c = ScfsConfig::paper_default(Mode::Blocking);
        assert_eq!(c.chunking, ChunkingMode::Fixed);
        let data = vec![1u8; 3 << 20];
        let fixed = c.chunk_map(&data);
        assert_eq!(fixed.chunk_count(), 3, "1 MiB fixed chunks");

        let cdc = c.clone().with_cdc();
        match cdc.chunking {
            ChunkingMode::Cdc(p) => {
                assert_eq!(p.avg_size, 1 << 20);
                assert_eq!(p.min_size, 1 << 18);
                assert_eq!(p.max_size, 1 << 22);
            }
            other => panic!("expected CDC chunking, got {other:?}"),
        }
        // Both modes chunk through the same seam and cover the same bytes.
        let map = cdc.chunk_map(&data);
        assert_eq!(map.file_len(), data.len() as u64);
        assert!(map.chunk_count() >= 1);
    }

    #[test]
    fn gc_defaults_are_sane() {
        let gc = GcConfig::default();
        assert!(gc.written_bytes_threshold.get() > 0);
        assert!(gc.versions_to_keep >= 1);
    }
}
