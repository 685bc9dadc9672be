//! Perf/cost-trajectory harness for cost/latency-aware placement over the
//! heterogeneous provider matrix.
//!
//! Drives the `workloads::fleet` zipfian shared-directory workload over the
//! seven-provider matrix (`ProviderSet::heterogeneous_matrix`) once per
//! placement policy — `all_clouds` (the paper's fixed layout), the
//! SLO-gated `cheapest_quorum` and the health-ranked `fastest_read` — and
//! once per provider condition:
//!
//! - `healthy`: every provider behaves as advertised;
//! - `slow_s3`: one mid-tier cloud (Amazon S3) suffers a 10x latency
//!   regression while the flaky regional store drops ~4% of requests;
//! - `pricey_flaky`: the flaky regional store (an identity-placement block
//!   holder) hikes every price 10x.
//!
//! Each run reports dollars per user-month (operation + traffic ledgers
//! scaled to 30 days, plus a month of storage rent), the fraction of reads
//! inside the latency SLO, and read/commit p50/p99. Two claims are asserted
//! in-process: `cheapest_quorum` cuts $/user/month against `all_clouds` at
//! equal SLO compliance, and under the 10x-latency sweep `fastest_read`
//! keeps its read p99 within 1.5x of its healthy baseline while the fixed
//! `all_clouds` placement degrades by at least 3x.
//!
//! Runs under `cargo bench --bench provider_matrix` (CI bench-smoke uses the
//! defaults; set `MATRIX_MOUNTS` to scale up). Virtual time is deterministic
//! given the seed, so the numbers are stable across machines; rows append to
//! `BENCH_transfer.json` under the `provider_matrix` tag.

use cloud_store::providers::{ProviderProfile, ProviderSet};
use placement::PolicyKind;
use scfs::config::{Mode, ScfsConfig};
use sim_core::fault::FaultPlan;
use sim_core::time::SimDuration;
use sim_core::units::Bytes;
use workloads::fleet::{run_fleet, FleetConfig, FleetReport};
use workloads::setup::{Backend, Deployment, Providers};

/// Matrix index of Amazon S3 (the 10x-latency victim) and of the flaky
/// regional store (fault injection + the 10x-price victim).
const S3: usize = 1;
const FLAKY: usize = 2;

/// Clouds holding blocks per version and block acks awaited per write.
const WIDTH: usize = 3;
const WRITE_WAIT: usize = 2;

/// End-to-end read SLO the compliance column measures. Looser than the
/// policy's 2.5 s placement SLO because a measured read also pays syscall
/// overhead and the consistency-anchor round.
const READ_SLO_SECS: f64 = 3.5;

/// The placement SLO handed to `cheapest_quorum`.
const POLICY_SLO_MILLIS: u32 = 2_500;

#[derive(Clone, Copy, PartialEq)]
enum Sweep {
    Healthy,
    SlowS3,
    PriceyFlaky,
}

impl Sweep {
    fn label(self) -> &'static str {
        match self {
            Sweep::Healthy => "healthy",
            Sweep::SlowS3 => "slow_s3",
            Sweep::PriceyFlaky => "pricey_flaky",
        }
    }

    fn profiles(self) -> Vec<ProviderProfile> {
        let mut profiles = ProviderSet::heterogeneous_matrix();
        match self {
            Sweep::Healthy => {}
            Sweep::SlowS3 => profiles[S3] = profiles[S3].with_latency_scaled(10.0),
            Sweep::PriceyFlaky => profiles[FLAKY] = profiles[FLAKY].with_prices_scaled(10.0),
        }
        profiles
    }
}

struct RunOutcome {
    report: FleetReport,
    dollars_per_user_month: f64,
    slo_compliance: f64,
}

fn fleet_config(mounts: usize) -> FleetConfig {
    let mut cfg = FleetConfig::smoke();
    cfg.mounts = mounts;
    cfg.teams = 4.min(mounts);
    cfg.files_per_team = 12;
    cfg.file_size = Bytes::kib(4);
    cfg.ops_per_mount = 16;
    cfg.read_fraction = 0.8;
    cfg.mean_think = SimDuration::from_secs(20);
    // Near-zero caches: reads must reach the clouds, or the sweep would
    // measure the cache instead of the placement.
    cfg.scfs = ScfsConfig::test(Mode::Blocking).with_cache_capacities(Bytes::new(1), Bytes::new(1));
    cfg.seed = 0x4D41_5452;
    cfg
}

fn run_sweep(policy: PolicyKind, sweep: Sweep, mounts: usize) -> RunOutcome {
    let cfg = fleet_config(mounts);
    let menv = Deployment::on(Backend::CloudOfClouds)
        .providers(Providers::Explicit(sweep.profiles()))
        .placement(policy, WIDTH, WRITE_WAIT)
        .build(cfg.seed);
    if sweep == Sweep::SlowS3 {
        menv.clouds[FLAKY].set_fault_plan(FaultPlan::flaky(0.04), cfg.seed);
    }
    let report = run_fleet(&menv, &cfg);

    // $/user/month: the operation/traffic ledgers cover the makespan, so
    // scale them to 30 days, then add a month of storage rent on what the
    // fleet left behind.
    let makespan_secs = report.makespan.as_secs_f64().max(1.0);
    let month_factor = 30.0 * 86_400.0 / makespan_secs;
    let ops_dollars: f64 = menv
        .clouds
        .iter()
        .map(|c| c.ledger().grand_total().as_dollars())
        .sum();
    let rent_dollars: f64 = menv
        .clouds
        .iter()
        .map(|c| {
            c.profile()
                .prices
                .storage_cost(c.stored_bytes(), 30.0)
                .as_dollars()
        })
        .sum();
    let dollars_per_user_month = (ops_dollars * month_factor + rent_dollars) / mounts as f64;

    let slo_compliance = report.recorder.summary("read").map_or(1.0, |s| {
        let samples = s.samples();
        let ok = samples.iter().filter(|&&v| v <= READ_SLO_SECS).count();
        ok as f64 / samples.len().max(1) as f64
    });
    RunOutcome {
        report,
        dollars_per_user_month,
        slo_compliance,
    }
}

fn row(policy: PolicyKind, sweep: Sweep, outcome: &mut RunOutcome) -> String {
    let read_p50 = outcome.report.recorder.percentile("read", 50.0);
    let read_p99 = outcome.report.recorder.percentile("read", 99.0);
    let commit_p50 = outcome.report.recorder.percentile("close_commit", 50.0);
    let commit_p99 = outcome.report.recorder.percentile("close_commit", 99.0);
    println!(
        "  {:<16} {:<13} ${:>8.4}/user/mo | SLO {:>6.1}% | read p50 {read_p50:.3}s \
         p99 {read_p99:.3}s | commit p50 {commit_p50:.3}s p99 {commit_p99:.3}s | \
         {} reads {} writes {} conflicts",
        policy.label(),
        sweep.label(),
        outcome.dollars_per_user_month,
        outcome.slo_compliance * 100.0,
        outcome.report.reads,
        outcome.report.writes,
        outcome.report.lock_conflicts,
    );
    format!(
        "{{\"policy\": \"{}\", \"sweep\": \"{}\", \"mounts\": {}, \
         \"dollars_per_user_month\": {:.6}, \"read_slo_compliance\": {:.4}, \
         \"read_p50_virtual_secs\": {read_p50:.6}, \
         \"read_p99_virtual_secs\": {read_p99:.6}, \
         \"commit_p50_virtual_secs\": {commit_p50:.6}, \
         \"commit_p99_virtual_secs\": {commit_p99:.6}, \
         \"lock_conflicts\": {}}}",
        policy.label(),
        sweep.label(),
        outcome.report.mounts,
        outcome.dollars_per_user_month,
        outcome.slo_compliance,
        outcome.report.lock_conflicts,
    )
}

fn main() {
    let mounts: usize = std::env::var("MATRIX_MOUNTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let policies = [
        PolicyKind::AllClouds,
        PolicyKind::CheapestQuorum {
            slo_millis: POLICY_SLO_MILLIS,
        },
        PolicyKind::FastestRead,
    ];
    let sweeps = [Sweep::Healthy, Sweep::SlowS3, Sweep::PriceyFlaky];
    println!(
        "provider_matrix: {mounts} mounts over 7 providers, {WIDTH}-wide placement, \
         read SLO {READ_SLO_SECS}s"
    );

    let mut rows = Vec::new();
    // outcomes[sweep][policy], in the iteration order above.
    let mut outcomes: Vec<Vec<RunOutcome>> = Vec::new();
    for sweep in sweeps {
        let mut per_policy = Vec::new();
        for policy in policies {
            let mut outcome = run_sweep(policy, sweep, mounts);
            rows.push(row(policy, sweep, &mut outcome));
            per_policy.push(outcome);
        }
        outcomes.push(per_policy);
    }

    // Claim 1: on the healthy matrix the cheapest SLO-feasible quorum is
    // genuinely cheaper than the paper's fixed all-clouds placement, without
    // giving up SLO compliance.
    let healthy = &outcomes[0];
    let (all, cheapest) = (&healthy[0], &healthy[1]);
    println!(
        "  healthy: cheapest_quorum ${:.4} vs all_clouds ${:.4} per user-month \
         (SLO {:.3} vs {:.3})",
        cheapest.dollars_per_user_month,
        all.dollars_per_user_month,
        cheapest.slo_compliance,
        all.slo_compliance,
    );
    assert!(
        cheapest.dollars_per_user_month < all.dollars_per_user_month,
        "cheapest_quorum must cut $/user/month vs all_clouds: {:.6} vs {:.6}",
        cheapest.dollars_per_user_month,
        all.dollars_per_user_month,
    );
    assert!(
        (cheapest.slo_compliance - all.slo_compliance).abs() <= 0.02,
        "the cost cut must not trade away SLO compliance: {:.4} vs {:.4}",
        cheapest.slo_compliance,
        all.slo_compliance,
    );

    // Claim 2: when one block-holding cloud turns 10x slower, the fixed
    // placement is stuck waiting on it while fastest_read routes around it.
    let slow = &outcomes[1];
    let all_healthy_p99 = outcomes[0][0]
        .report
        .recorder
        .clone()
        .percentile("read", 99.0);
    let all_slow_p99 = slow[0].report.recorder.clone().percentile("read", 99.0);
    let fast_healthy_p99 = outcomes[0][2]
        .report
        .recorder
        .clone()
        .percentile("read", 99.0);
    let fast_slow_p99 = slow[2].report.recorder.clone().percentile("read", 99.0);
    println!(
        "  slow_s3: all_clouds read p99 {all_healthy_p99:.3}s -> {all_slow_p99:.3}s, \
         fastest_read {fast_healthy_p99:.3}s -> {fast_slow_p99:.3}s"
    );
    assert!(
        all_slow_p99 >= 3.0 * all_healthy_p99,
        "a 10x-slow block holder must degrade all_clouds read p99 >= 3x: \
         {all_slow_p99:.3}s vs healthy {all_healthy_p99:.3}s"
    );
    assert!(
        fast_slow_p99 <= 1.5 * fast_healthy_p99,
        "fastest_read must hold read p99 within 1.5x of healthy: \
         {fast_slow_p99:.3}s vs healthy {fast_healthy_p99:.3}s"
    );

    // The price sweep hikes an identity block holder 10x; re-solving the
    // quorum keeps the cost advantage.
    let pricey = &outcomes[2];
    assert!(
        pricey[1].dollars_per_user_month < pricey[0].dollars_per_user_month,
        "cheapest_quorum must stay cheaper under the price hike: {:.6} vs {:.6}",
        pricey[1].dollars_per_user_month,
        pricey[0].dollars_per_user_month,
    );

    let results = format!("[{}]", rows.join(", "));
    bench::record_trajectory("provider_matrix", &results);
    println!("trajectory: BENCH_transfer.json");
}
