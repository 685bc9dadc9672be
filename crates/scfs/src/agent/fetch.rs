//! Manifests and the chunk-fetch loop: what read faults and the sequential
//! prefetcher bring in from the cloud.

use std::collections::HashMap;
use std::sync::Arc;

use cloud_store::error::StorageError;
use cloud_store::store::OpCtx;
use scfs_crypto::ContentHash;

use super::handles::OpenFile;
use super::ScfsAgent;
use crate::anchor::anchored_fetch;
use crate::cache::WriteMode;
use crate::error::ScfsError;
use crate::transfer::{execute_plan, ChunkJob, TransferPlan};
use crate::types::{ChunkMap, FileMetadata};

/// Chunk payloads in request order, plus whether the cloud was touched.
type FetchedChunks = (Vec<Arc<[u8]>>, bool);

/// What one executed fetch plan moved: `(job, bytes, anchor retries)` per
/// job of the plan, and the number of waves.
type FetchedPlan = (Vec<(ChunkJob, Arc<[u8]>, usize)>, u64);

impl ScfsAgent {
    /// Loads the chunk-map manifest of the version of `metadata`'s object
    /// whose root hash is `root` — the one place that chooses where a
    /// manifest comes from: the metadata tuple itself when it carries the
    /// manifest inline (no transfer at all — and no other copy: such a
    /// version stored no manifest object), else the memory cache, the disk
    /// cache, and last the cloud via the consistency-anchor retry loop. This
    /// is everything `open` transfers — the chunks themselves fault in
    /// lazily as reads touch them.
    pub(super) fn load_manifest(
        &mut self,
        metadata: &FileMetadata,
        root: ContentHash,
    ) -> Result<ChunkMap, ScfsError> {
        if let Some(map) = metadata.inline_manifest()? {
            return Ok(map);
        }
        let manifest_key = Self::manifest_cache_key(&root);
        // The tiered cache handles the memory → disk fallthrough and
        // promotes a disk hit into memory by moving the Arc.
        if let Some(bytes) = self.cache.get(&mut self.clock, &manifest_key, Some(&root)) {
            return ChunkMap::decode(&bytes).map_err(|e| {
                ScfsError::invalid(format!("cached manifest corrupted: {}", e.reason))
            });
        }
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let fetched = anchored_fetch(&mut ctx, |ctx| {
            self.storage
                .read_manifest_bytes(ctx, &metadata.storage_id, &root)
        })?;
        self.stats.cloud_downloads += 1;
        self.stats.anchor_retries += fetched.retries as u64;
        let map =
            ChunkMap::decode(&fetched.data).map_err(|_| StorageError::IntegrityViolation {
                key: metadata.storage_id.clone(),
            })?;
        self.cache.put(
            &mut self.clock,
            &manifest_key,
            fetched.data.into(),
            Some(root),
            WriteMode::CacheOnly,
        );
        Ok(map)
    }

    /// Plans a fetch of the chunks of `map` at `indices` absent from both
    /// cache levels (probes are free and pin the planned cache hits in the
    /// policy).
    fn plan_fetch(&mut self, map: &ChunkMap, indices: &[usize]) -> TransferPlan {
        let cache = &mut self.cache;
        TransferPlan::fetch(map, indices.iter().copied(), |hash| {
            cache.probe(&Self::chunk_cache_key(hash), Some(hash))
        })
    }

    /// Fails unless a chunk of `len` bytes can be chunk `index` of `map`
    /// (what keeps a hostile manifest from panicking the buffer copy).
    fn check_chunk_len(
        file: &FileMetadata,
        map: &ChunkMap,
        index: usize,
        len: usize,
    ) -> Result<(), ScfsError> {
        if len == map.chunk_len(index) {
            return Ok(());
        }
        Err(ScfsError::invalid(format!(
            "chunk {index} of {} has {len} bytes, expected {}",
            file.path,
            map.chunk_len(index)
        )))
    }

    /// The one chunk-fetch loop: moves the chunks of `plan` — chunks of
    /// `file`'s object, laid out by `map` — from the cloud into the cache,
    /// on whichever clock `self.clock` currently is. The GETs run through
    /// the transfer engine in parallel waves, each forked request inside its
    /// own consistency-anchor retry loop; every chunk is checked against the
    /// map's length and inserted memory-first (a clean chunk the cloud still
    /// holds reaches disk later by demotion, if it stays warm enough to
    /// matter).
    fn fetch_plan(
        &mut self,
        file: &FileMetadata,
        map: &ChunkMap,
        plan: &TransferPlan,
    ) -> Result<FetchedPlan, ScfsError> {
        let storage = self.storage.as_ref();
        let opts = self.transfer_options();
        let mut ctx = OpCtx::new(&mut self.clock, self.user.clone());
        let (chunks, report) = execute_plan(&mut ctx, &opts, plan, |job, fork_ctx| {
            let fetched = anchored_fetch(fork_ctx, |ctx| {
                storage.read_chunk(ctx, &file.storage_id, &job.hash)
            })?;
            Self::check_chunk_len(file, map, job.index, fetched.data.len())?;
            Ok(fetched)
        })?;
        let mut out = Vec::with_capacity(chunks.len());
        for (job, chunk) in plan.jobs().iter().zip(chunks) {
            self.stats.chunk_downloads += 1;
            self.stats.bytes_downloaded += chunk.data.len() as u64;
            let data: Arc<[u8]> = chunk.data.into();
            self.cache.put(
                &mut self.clock,
                &Self::chunk_cache_key(&job.hash),
                data.clone(),
                Some(job.hash),
                WriteMode::CacheOnly,
            );
            out.push((*job, data, chunk.retries));
        }
        Ok((out, report.waves))
    }

    /// Brings the chunks of `map` at `wanted` indices into this agent's
    /// caches and returns their bytes in `wanted` order: memory cache, then
    /// disk cache (promoting), then the cloud. Returns the chunks and
    /// whether the cloud was touched.
    pub(super) fn fetch_chunks(
        &mut self,
        file: &FileMetadata,
        map: &ChunkMap,
        wanted: &[usize],
    ) -> Result<FetchedChunks, ScfsError> {
        let plan = self.plan_fetch(map, wanted);
        let cloud_touched = !plan.is_empty();
        let mut fetched: HashMap<ContentHash, Arc<[u8]>> = HashMap::new();
        if cloud_touched {
            let (chunks, waves) = self.fetch_plan(file, map, &plan)?;
            self.stats.transfer_waves += waves;
            for (job, data, retries) in chunks {
                self.stats.anchor_retries += retries as u64;
                fetched.insert(job.hash, data);
            }
        }

        // Assemble: cloud-fetched bytes directly, the rest from the caches.
        let mut out = Vec::with_capacity(wanted.len());
        for &index in wanted {
            let hash = map.chunks()[index];
            if let Some(bytes) = fetched.get(&hash) {
                out.push(bytes.clone());
                continue;
            }
            // The tiered get promotes a disk hit into memory by moving the
            // Arc (one insert charge, no payload copy).
            let key = Self::chunk_cache_key(&hash);
            if let Some(chunk) = self.cache.get(&mut self.clock, &key, Some(&hash)) {
                Self::check_chunk_len(file, map, index, chunk.len())?;
                out.push(chunk);
                continue;
            }
            // A planned cache hit was evicted by this very call's cloud puts
            // (tiny caches): fetch it after all rather than failing.
            let evicted = TransferPlan::fetch(map, [index], |_| false);
            for (_, data, retries) in self.fetch_plan(file, map, &evicted)?.0 {
                self.stats.anchor_retries += retries as u64;
                out.push(data);
            }
        }
        Ok((out, cloud_touched))
    }

    /// Schedules a background fetch of the chunks of `file` at `indices`
    /// that are neither materialized, cached, nor already in flight: the
    /// fetch loop as a job on the object's lane. It never blocks the caller,
    /// serializes behind an in-flight upload of the same object
    /// (read-after-write order) and overlaps with everything else; a later
    /// foreground read of these chunks waits only for the remainder of the
    /// background transfer. Prefetch is best-effort: an error makes the job a
    /// no-op, the foreground fault path will retry and surface it.
    pub(super) fn prefetch_background(
        &mut self,
        file: &mut OpenFile,
        indices: std::ops::Range<usize>,
    ) {
        let Some(map) = file.chunk_map.clone() else {
            return;
        };
        let candidates: Vec<usize> = file
            .missing_of(indices)
            .into_iter()
            .filter(|i| !file.prefetch_ready.contains_key(i))
            .collect();
        let plan = self.plan_fetch(&map, &candidates);
        if plan.is_empty() {
            return;
        }
        let token = self.on_lane(self.clock.now(), &file.metadata.storage_id, |agent| {
            agent.fetch_plan(&file.metadata, &map, &plan)
        });
        let ready_at = token.ready_at();
        let Ok((chunks, _)) = token.into_inner() else {
            return;
        };
        self.stats.prefetched_chunks += chunks.len() as u64;
        // Every planned chunk (and any duplicate of it among the candidates)
        // becomes available at the background completion instant.
        for index in candidates {
            if plan.jobs().iter().any(|j| j.hash == map.chunks()[index]) {
                file.prefetch_ready.insert(index, ready_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_agent;
    use crate::config::Mode;
    use crate::fs::FileSystem;

    #[test]
    fn cache_serves_repeated_reads_without_cloud_access() {
        let mut fs = test_agent(Mode::Blocking);
        fs.write_file("/f", &vec![1u8; 10_000]).unwrap();
        let downloads_before = fs.stats().cloud_downloads;
        for _ in 0..5 {
            fs.read_file("/f").unwrap();
        }
        assert_eq!(
            fs.stats().cloud_downloads,
            downloads_before,
            "reads of an unmodified file must be served locally (avoid reading principle)"
        );
        assert!(fs.stats().cache_served_reads >= 5);
    }
}
