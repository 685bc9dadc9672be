//! Kernels: what no seam separates, sized by timing the layer's public
//! function alone.
//!
//! Chunking and the cache live inside the agent; DepSky and the ciphers live
//! inside the cloud-of-clouds backend. No public trait separates them, so no
//! decorator can bracket them. Each kernel instead calls the layer's public
//! function in a loop, through `black_box`, for a fixed share of the run and
//! reports a rate. A kernel is run as two batches of `n` and `2n`
//! iterations: the second must take about twice the first, which shows the
//! compiler did not delete or hoist the work.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cloud_store::providers::ProviderSet;
use cloud_store::sim_cloud::SimulatedCloud;
use cloud_store::store::{ObjectStore, OpCtx};
use coord::abd::RegisterGroup;
use coord::commands::{Command, SignedCommand};
use coord::replication::ReplicationConfig;
use coord::store::TupleStore;
use depsky::config::DepSkyConfig;
use depsky::register::DepSkyClient;
use placement::policy::{CheapestQuorum, FastestRead, PlacementPolicy};
use placement::ProviderMatrix;
use scfs::cache::{CacheTier, PolicyKind};
use scfs::types::{CdcParams, ChunkMap};
use scfs_crypto::chacha20::ChaCha20;
use scfs_crypto::erasure::ErasureCoder;
use scfs_crypto::sha256::sha256;
use scfs_crypto::shamir::{combine_shares, split_secret};
use sim_core::parallel::{join_all, run_forked};
use sim_core::time::{Clock, SimDuration, SimInstant};
use sim_core::units::Bytes;

use crate::rng::Rng;

/// One kernel's result.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Metric name (`layer.kernel_*`).
    pub name: &'static str,
    /// Work units (MiB or calls) per host second.
    pub rate: f64,
    /// Whether the `2n` batch took between 1.4x and 2.8x the `n` batch.
    pub scales: bool,
}

/// Times `step` (which performs `work` units per call) for about `budget_s`
/// seconds in two batches of `n` and `2n` calls.
fn measure(name: &'static str, work: f64, budget_s: f64, mut step: impl FnMut()) -> KernelResult {
    // Warm caches and find how many calls fit a ninth of the budget.
    step();
    let probe = Instant::now();
    step();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let n = ((budget_s / 3.0 / once) as u64).clamp(1, 50_000_000);
    let mut batch = |calls: u64| {
        let start = Instant::now();
        for _ in 0..calls {
            step();
        }
        start.elapsed().as_secs_f64()
    };
    let first = batch(n);
    let second = batch(2 * n);
    let ratio = second / first.max(1e-9);
    KernelResult {
        name,
        rate: work * (3 * n) as f64 / (first + second).max(1e-9),
        scales: (1.4..=2.8).contains(&ratio),
    }
}

/// Runs every kernel for `budget_s` seconds each.
pub fn run_all(seed: u64, budget_s: f64) -> Vec<KernelResult> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let four_mib = rng.bytes(4 << 20);
    let one_mib = rng.bytes(1 << 20);

    // chunking: the agent re-cuts the whole file at every dirty close.
    let cdc = CdcParams::with_avg(1 << 20);
    out.push(measure(
        "chunking.kernel_cdc_mib_per_s",
        4.0,
        budget_s,
        || {
            black_box(ChunkMap::build_cdc(black_box(&four_mib), &cdc));
        },
    ));
    out.push(measure(
        "chunking.kernel_fixed_mib_per_s",
        4.0,
        budget_s,
        || {
            black_box(ChunkMap::build(black_box(&four_mib), 1 << 20));
        },
    ));
    let manifest = ChunkMap::build(&four_mib, 64 << 10);
    out.push(measure(
        "chunking.kernel_manifest_codec_per_s",
        1.0,
        budget_s,
        || {
            let bytes = black_box(&manifest).encode();
            black_box(ChunkMap::decode(&bytes).expect("own encoding decodes"));
        },
    ));

    // crypto: one 1 MiB chunk through each primitive DepSky-CA uses.
    out.push(measure(
        "crypto.kernel_sha256_mib_per_s",
        1.0,
        budget_s,
        || {
            black_box(sha256(black_box(&one_mib)));
        },
    ));
    let cipher = ChaCha20::new(&[7u8; 32], &[9u8; 12]);
    out.push(measure(
        "crypto.kernel_chacha20_mib_per_s",
        1.0,
        budget_s,
        || {
            black_box(cipher.encrypt(black_box(&one_mib)));
        },
    ));
    let coder = ErasureCoder::depsky(1).expect("f = 1 is a valid code");
    out.push(measure(
        "crypto.kernel_rs_encode_mib_per_s",
        1.0,
        budget_s,
        || {
            black_box(coder.encode(black_box(&one_mib)));
        },
    ));
    // Decode with the first data shard lost, so parity is actually inverted.
    let mut shards: Vec<Option<Vec<u8>>> = coder.encode(&one_mib).into_iter().map(Some).collect();
    shards[0] = None;
    out.push(measure(
        "crypto.kernel_rs_decode_mib_per_s",
        1.0,
        budget_s,
        || {
            black_box(
                coder
                    .decode(black_box(&shards), one_mib.len())
                    .expect("one lost shard is recoverable"),
            );
        },
    ));
    let mut entropy = Rng::new(seed ^ 1);
    out.push(measure("crypto.kernel_shamir_per_s", 1.0, budget_s, || {
        let shares = split_secret(black_box(&[0x5a; 32]), 2, 4, || entropy.next_u64() as u8)
            .expect("2-of-4 is a valid sharing");
        black_box(combine_shares(&shares, 2).expect("two shares recover the key"));
    }));

    // cache: an LRU tier at twice its capacity, alternating put and get.
    let mut tier = CacheTier::memory(Bytes::kib(2048), PolicyKind::Lru, seed);
    let mut clock = Clock::new();
    let keys: Vec<String> = (0..1024).map(|i| format!("chunk/{i:04}")).collect();
    let payload: Arc<[u8]> = vec![1u8; 4096].into();
    let mut turn = 0usize;
    out.push(measure("cache.kernel_lru_ops_per_s", 2.0, budget_s, || {
        turn = (turn + 389) % keys.len();
        black_box(tier.put(&mut clock, &keys[turn], payload.clone(), None));
        black_box(tier.get(&mut clock, &keys[(turn * 7) % keys.len()], None));
    }));

    // depsky: 1 MiB units over four zero-latency clouds.
    let clouds: Vec<Arc<dyn ObjectStore>> = (0..4)
        .map(|i| Arc::new(SimulatedCloud::test(&format!("k{i}"))) as Arc<dyn ObjectStore>)
        .collect();
    let depsky = DepSkyClient::new(clouds, DepSkyConfig::scfs_default(), seed)
        .expect("four clouds match f = 1");
    let hash = sha256(&one_mib);
    let mut clock = Clock::new();
    out.push(measure(
        "depsky.kernel_write_blob_mib_per_s",
        1.0,
        budget_s,
        || {
            let mut ctx = OpCtx::new(&mut clock, "bench".into());
            depsky
                .write_blob(&mut ctx, "k", &hash, black_box(&one_mib))
                .expect("write to healthy clouds");
        },
    ));
    out.push(measure(
        "depsky.kernel_read_blob_mib_per_s",
        1.0,
        budget_s,
        || {
            let mut ctx = OpCtx::new(&mut clock, "bench".into());
            black_box(
                depsky
                    .read_blob(&mut ctx, "k", &hash)
                    .expect("blob was written"),
            );
        },
    ));

    // The simulated services keep every version they were ever given, so a
    // kernel that hammered one instance would time a growing history, not a
    // call: each of the next four rebuilds its service every `RENEW` calls.
    const RENEW: usize = 512;

    // cloud: one simulated provider, 4 KiB objects.
    let mut cloud = SimulatedCloud::test("kernel");
    let object = vec![3u8; 4096];
    let mut clock = Clock::new();
    let mut turn = 0usize;
    out.push(measure("cloud.kernel_put_get_per_s", 2.0, budget_s, || {
        turn += 1;
        if turn.is_multiple_of(RENEW) {
            cloud = SimulatedCloud::test("kernel");
        }
        let key = &keys[turn % keys.len()];
        let mut ctx = OpCtx::new(&mut clock, "bench".into());
        cloud.put(&mut ctx, key, black_box(&object)).expect("put");
        black_box(cloud.get(&mut ctx, key).expect("get"));
    }));

    // coord: one replica's state machine, then whole ABD rounds.
    let mut store = TupleStore::new();
    let value: Arc<[u8]> = vec![5u8; 256].into();
    let commands: Vec<SignedCommand> = keys
        .iter()
        .map(|k| SignedCommand {
            issuer: "bench".into(),
            command: Command::Put {
                key: k.clone(),
                value: value.clone(),
            },
        })
        .collect();
    let mut turn = 0usize;
    out.push(measure(
        "coord.kernel_store_apply_per_s",
        1.0,
        budget_s,
        || {
            turn += 1;
            if turn.is_multiple_of(RENEW) {
                store = TupleStore::new();
            }
            let at = SimInstant::from_nanos(turn as u64);
            black_box(store.apply(&commands[turn % commands.len()], at));
        },
    ));
    let new_group = || {
        let group = RegisterGroup::new(ReplicationConfig::metro_crash(1), seed)
            .expect("metro_crash is consistent");
        let mut clock = Clock::new();
        let mut ctx = OpCtx::new(&mut clock, "bench".into());
        for k in keys.iter().take(64) {
            group.write(&mut ctx, k, value.clone()).expect("seed write");
        }
        group
    };
    let mut group = new_group();
    // Past every seeding write, so reads see them.
    let mut clock = Clock::starting_at(SimInstant::from_secs(3600));
    let mut turn = 0usize;
    out.push(measure(
        "coord.kernel_abd_read_per_s",
        1.0,
        budget_s,
        || {
            turn += 1;
            let mut ctx = OpCtx::new(&mut clock, "bench".into());
            black_box(group.read(&mut ctx, &keys[turn % 64]).expect("read"));
        },
    ));
    out.push(measure(
        "coord.kernel_abd_write_per_s",
        1.0,
        budget_s,
        || {
            turn += 1;
            if turn.is_multiple_of(RENEW) {
                group = new_group();
            }
            let mut ctx = OpCtx::new(&mut clock, "bench".into());
            black_box(
                group
                    .write(&mut ctx, &keys[turn % 64], value.clone())
                    .expect("write"),
            );
        },
    ));

    // placement: one write and one read decision over the seven providers.
    let matrix = ProviderMatrix::new(ProviderSet::heterogeneous_matrix());
    let cheapest = CheapestQuorum { slo_millis: 2500.0 };
    let holders: Vec<usize> = (0..matrix.len()).collect();
    out.push(measure(
        "placement.kernel_decisions_per_s",
        2.0,
        budget_s,
        || {
            black_box(cheapest.write_targets(&matrix, 3, 2, Bytes::kib(512)));
            black_box(FastestRead.read_order(&matrix, black_box(&holders), 2, Bytes::kib(512)));
        },
    ));

    // sim: the fork/join every quorum wait and transfer wave is built on.
    let mut clock = Clock::new();
    out.push(measure("sim.kernel_fork_join_per_s", 1.0, budget_s, || {
        let runs = run_forked(&clock, 0..4, |i, fork| {
            fork.advance(SimDuration(1000 + i as u64));
        });
        join_all(&mut clock, runs.iter().map(|r| r.completed_at));
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_rate_and_linear_scaling() {
        // A burst of interference can stretch one batch; a quiet attempt
        // must show the 2n batch taking about twice the n batch.
        let attempt = || {
            let mut total = 0u64;
            measure("t", 1.0, 0.15, || {
                for i in 0..2_000u64 {
                    total = black_box(total.wrapping_add(i));
                }
            })
        };
        let results: Vec<KernelResult> = (0..5).map(|_| attempt()).collect();
        assert!(results.iter().all(|r| r.rate > 1000.0), "{results:?}");
        assert!(results.iter().any(|r| r.scales), "{results:?}");
    }

    #[test]
    fn every_kernel_runs_and_is_named_once() {
        let results = run_all(1, 0.01);
        assert_eq!(results.len(), 17);
        let mut names: Vec<_> = results.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
        assert!(results.iter().all(|r| r.rate > 0.0 && r.rate.is_finite()));
    }
}
