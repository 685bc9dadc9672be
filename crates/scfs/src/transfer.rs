//! The chunk transfer engine: planning and bounded-parallel execution of
//! per-chunk cloud transfers on virtual time.
//!
//! PR 1 made the data path chunked, but chunks still moved one at a time on
//! the caller's clock. This module separates *planning* from *execution*:
//!
//! * a [`TransferPlan`] lists exactly which chunks have to move (dirty
//!   chunks not already stored on upload, missing chunks on fetch), computed
//!   from a [`ChunkMap`] plus a presence predicate (backend registry or
//!   local cache state) — by content hash only, so fixed-size and
//!   content-defined maps plan identically;
//! * [`execute_plan`] runs the per-chunk operations in *waves* of up to
//!   [`TransferOptions::max_parallel`] concurrent transfers, each on a fork
//!   of the caller's clock (the same fork/join machinery DepSky uses for its
//!   per-cloud quorum waits, hoisted into [`sim_core::parallel`]). A wave
//!   costs the latency of its slowest member, so a 16-chunk transfer with
//!   parallelism 4 costs ~4 chunk latencies of wall-clock instead of 16 —
//!   on both the AWS and CoC backends, since the per-chunk operation is
//!   whatever the backend does for one blob.
//!
//! Both backends route uploads and fetches through this engine
//! ([`crate::backend`]), and the agent uses it directly for chunk-level
//! cache faulting and sequential-read prefetch ([`crate::agent`]).
//!
//! Waves bound how much is in flight, not what must precede what: under the
//! commit invariant ([`crate::backend`]) content-addressed objects are
//! unordered among themselves and only the anchor update is ordered after
//! all of them. An upload's waves may therefore run in any order, and its
//! manifest travels beside the first of them.
//!
//! The plan/execute seam is also where the storage API's async twin cuts:
//! [`crate::backend::FileStorage::begin_write_version`] and
//! [`crate::backend::FileStorage::begin_read_chunks`] run the same plans as
//! jobs on a [`sim_core::background::BackgroundScheduler`] lane and hand the
//! caller a [`sim_core::background::Pending`] completion token. The agent
//! needs neither: it puts a whole commit or prefetch on a lane of its own
//! scheduler and calls the blocking forms from there.

use cloud_store::store::OpCtx;
use scfs_crypto::ContentHash;
use sim_core::parallel::{join_all, run_forked};

use crate::error::ScfsError;
use crate::types::ChunkMap;

/// Default bound on concurrent per-chunk transfers
/// ([`crate::config::ScfsConfig::max_parallel_transfers`]).
pub const DEFAULT_MAX_PARALLEL: usize = 4;

/// Knobs of one engine invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOptions {
    /// Maximum number of chunk transfers in flight at once (≥ 1).
    pub max_parallel: usize,
}

impl TransferOptions {
    /// One transfer at a time — the pre-engine behaviour, used as the
    /// baseline in the perf harness.
    pub fn sequential() -> Self {
        TransferOptions { max_parallel: 1 }
    }

    /// A bound of `max_parallel` concurrent transfers.
    pub fn parallel(max_parallel: usize) -> Self {
        TransferOptions {
            max_parallel: max_parallel.max(1),
        }
    }
}

impl Default for TransferOptions {
    fn default() -> Self {
        TransferOptions {
            max_parallel: DEFAULT_MAX_PARALLEL,
        }
    }
}

/// One chunk the engine has to move: its position in the file and its
/// content hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkJob {
    /// Chunk index within the file's [`ChunkMap`].
    pub index: usize,
    /// Content hash addressing the chunk in the backend and the caches.
    pub hash: ContentHash,
}

/// The set of chunks one transfer has to move, in file order, deduplicated
/// by content hash (identical chunks move once).
#[derive(Debug, Clone, Default)]
pub struct TransferPlan {
    jobs: Vec<ChunkJob>,
}

impl TransferPlan {
    /// Plans an upload: every chunk of `map` for which `already_stored`
    /// returns `false`, deduplicated within the plan (the first occurrence
    /// of a repeated chunk carries it).
    pub fn upload(map: &ChunkMap, mut already_stored: impl FnMut(&ContentHash) -> bool) -> Self {
        let mut seen = std::collections::HashSet::new();
        TransferPlan {
            jobs: map
                .chunks()
                .iter()
                .enumerate()
                .filter(|(_, h)| !already_stored(h) && seen.insert(**h))
                .map(|(index, hash)| ChunkJob { index, hash: *hash })
                .collect(),
        }
    }

    /// Plans a fetch of the chunks of `map` at `indices` for which `cached`
    /// returns `false`, deduplicated by hash.
    pub fn fetch(
        map: &ChunkMap,
        indices: impl IntoIterator<Item = usize>,
        mut cached: impl FnMut(&ContentHash) -> bool,
    ) -> Self {
        let mut seen = std::collections::HashSet::new();
        TransferPlan {
            jobs: indices
                .into_iter()
                .map(|index| ChunkJob {
                    index,
                    hash: map.chunks()[index],
                })
                .filter(|job| !cached(&job.hash) && seen.insert(job.hash))
                .collect(),
        }
    }

    /// The chunks to move, in file order.
    pub fn jobs(&self) -> &[ChunkJob] {
        &self.jobs
    }

    /// Number of chunks in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether nothing has to move.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of waves executing this plan takes at the given parallelism.
    pub fn waves(&self, opts: &TransferOptions) -> u64 {
        self.jobs.len().div_ceil(opts.max_parallel.max(1)) as u64
    }
}

/// Accounting of one executed plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferReport {
    /// Parallel waves the plan took (0 for an empty plan).
    pub waves: u64,
    /// Chunks moved.
    pub chunks: u64,
}

/// Executes `plan` by running `op` once per chunk job, at most
/// `opts.max_parallel` concurrently. Each job runs on a fork of the caller's
/// clock; after every wave the caller's clock advances to the completion of
/// the wave's slowest job. Results come back in plan (file) order.
///
/// On the first failing job the error is returned after the failing wave has
/// been joined (the time spent by that wave is still charged — the transfers
/// were issued).
pub fn execute_plan<T>(
    ctx: &mut OpCtx<'_>,
    opts: &TransferOptions,
    plan: &TransferPlan,
    mut op: impl FnMut(&ChunkJob, &mut OpCtx<'_>) -> Result<T, ScfsError>,
) -> Result<(Vec<T>, TransferReport), ScfsError> {
    let width = opts.max_parallel.max(1);
    let account = ctx.account.clone();
    let mut results = Vec::with_capacity(plan.len());
    let mut report = TransferReport::default();
    for wave in plan.jobs().chunks(width) {
        report.waves += 1;
        let runs = run_forked(ctx.clock, 0..wave.len(), |slot, fork| {
            let mut fork_ctx = OpCtx::new(fork, account.clone());
            op(&wave[slot], &mut fork_ctx)
        });
        join_all(ctx.clock, runs.iter().map(|r| r.completed_at));
        let mut wave_results: Vec<Option<Result<T, ScfsError>>> =
            (0..wave.len()).map(|_| None).collect();
        for run in runs {
            wave_results[run.index] = Some(run.value);
        }
        for result in wave_results.into_iter().flatten() {
            results.push(result?);
            report.chunks += 1;
        }
    }
    Ok((results, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::types::AccountId;
    use sim_core::time::{Clock, SimDuration, SimInstant};

    fn map_of(n_chunks: usize) -> ChunkMap {
        let mut data = vec![0u8; n_chunks * 100];
        for (i, chunk) in data.chunks_mut(100).enumerate() {
            chunk.fill(i as u8 + 1);
        }
        ChunkMap::build(&data, 100)
    }

    fn ctx(clock: &mut Clock) -> OpCtx<'_> {
        OpCtx::new(clock, AccountId::new("alice"))
    }

    #[test]
    fn upload_plan_dedups_and_filters_stored() {
        let data = [vec![1u8; 100], vec![1u8; 100], vec![2u8; 100]].concat();
        let map = ChunkMap::build(&data, 100);
        let stored = map.chunks()[2];
        let plan = TransferPlan::upload(&map, |h| *h == stored);
        // Chunks 0 and 1 are identical → one job; chunk 2 is stored → skipped.
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.jobs()[0].index, 0);
    }

    #[test]
    fn fetch_plan_covers_requested_indices() {
        let map = map_of(8);
        let plan = TransferPlan::fetch(&map, 2..5, |_| false);
        let indices: Vec<usize> = plan.jobs().iter().map(|j| j.index).collect();
        assert_eq!(indices, vec![2, 3, 4]);
        let none = TransferPlan::fetch(&map, 2..5, |_| true);
        assert!(none.is_empty());
    }

    #[test]
    fn sixteen_jobs_at_parallelism_four_cost_four_waves() {
        let map = map_of(16);
        let plan = TransferPlan::upload(&map, |_| false);
        let opts = TransferOptions::parallel(4);
        assert_eq!(plan.waves(&opts), 4);
        let mut clock = Clock::new();
        let mut ctx = ctx(&mut clock);
        let (results, report) = execute_plan(&mut ctx, &opts, &plan, |job, c| {
            c.clock.advance(SimDuration::from_millis(100));
            Ok(job.index)
        })
        .unwrap();
        assert_eq!(report.waves, 4);
        assert_eq!(report.chunks, 16);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        // 4 waves of one 100 ms transfer each: the caller waited 400 ms, not
        // 1.6 s.
        assert_eq!(clock.now(), SimInstant::from_millis(400));
    }

    #[test]
    fn sequential_options_serialize_everything() {
        let map = map_of(5);
        let plan = TransferPlan::upload(&map, |_| false);
        let mut clock = Clock::new();
        let mut ctx = ctx(&mut clock);
        let (_, report) = execute_plan(&mut ctx, &TransferOptions::sequential(), &plan, |_, c| {
            c.clock.advance(SimDuration::from_millis(10));
            Ok(())
        })
        .unwrap();
        assert_eq!(report.waves, 5);
        assert_eq!(clock.now(), SimInstant::from_millis(50));
    }

    #[test]
    fn errors_fail_fast_but_charge_the_wave() {
        let map = map_of(8);
        let plan = TransferPlan::upload(&map, |_| false);
        let mut clock = Clock::new();
        let mut ctx = ctx(&mut clock);
        let err = execute_plan(&mut ctx, &TransferOptions::parallel(4), &plan, |job, c| {
            c.clock.advance(SimDuration::from_millis(100));
            if job.index == 2 {
                Err(ScfsError::invalid("boom"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, ScfsError::Invalid { .. }));
        // The failing (first) wave was issued and joined; the second never ran.
        assert_eq!(clock.now(), SimInstant::from_millis(100));
    }

    #[test]
    fn empty_plan_is_free() {
        let plan = TransferPlan::default();
        let mut clock = Clock::new();
        let mut ctx = ctx(&mut clock);
        let (results, report) =
            execute_plan::<()>(&mut ctx, &TransferOptions::default(), &plan, |_, _| {
                panic!("no jobs to run")
            })
            .unwrap();
        assert!(results.is_empty());
        assert_eq!(report, TransferReport::default());
        assert_eq!(clock.now(), SimInstant::EPOCH);
    }
}
