//! Metric tables and the assembly of a run's numbers into named metrics.
//!
//! The tables here are the single source of the metric names: the binary
//! prints `BENCHMARK.json` from them (`contract` subcommand, pinned by a
//! test against the committed file) and every run emits exactly these names.

use crate::decorators::{COORD_LOCK_OPS, COORD_READS};
use crate::driver::CycleResult;
use crate::kernels::KernelResult;
use crate::stats::{median, samples_beyond, supported_tail, Samples};
use crate::trace::{Layer, Recorder};

/// Which clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Virtual time or a count: repeats bit-for-bit for one seed.
    Virtual,
    /// Host time or memory: varies run to run.
    Host,
}

impl Clock {
    /// Label used in the printed metric lines.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }
}

/// Static description of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string (contract charset).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
    /// The clock it is read on.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    clock: Clock,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

/// The end-to-end metrics. Bounds are at least three times the spread
/// measured across ten seeds at the seed commit (README, "Spread").
pub const END_TO_END: [MetricDef; 14] = [
    e2e("close_p50_vs", "s", "lower", 0.08, Clock::Virtual),
    e2e("close_p95_vs", "s", "lower", 0.20, Clock::Virtual),
    e2e("read_p50_vs", "s", "lower", 0.20, Clock::Virtual),
    e2e("read_p95_vs", "s", "lower", 0.15, Clock::Virtual),
    e2e("stat_p50_vs", "s", "lower", 0.03, Clock::Virtual),
    e2e("stat_p99_vs", "s", "lower", 0.15, Clock::Virtual),
    e2e("mdwrite_p50_vs", "s", "lower", 0.15, Clock::Virtual),
    e2e("ops_per_vs", "1/s", "higher", 0.25, Clock::Virtual),
    e2e(
        "wire_bytes_per_user_byte",
        "B/B",
        "lower",
        0.25,
        Clock::Virtual,
    ),
    e2e(
        "cloud_microdollars_per_op",
        "uUSD",
        "lower",
        0.25,
        Clock::Virtual,
    ),
    e2e(
        "stored_bytes_per_live_byte",
        "B/B",
        "lower",
        0.10,
        Clock::Virtual,
    ),
    e2e("host_ops_per_s", "1/s", "higher", 0.25, Clock::Host),
    e2e("peak_rss_mib", "MiB", "lower", 0.20, Clock::Host),
    e2e("setup_s", "s", "lower", 0.25, Clock::Host),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        clock,
    }
}

use Clock::{Host as H, Virtual as V};

/// The per-layer metrics, layers named after the modules behind the seams.
pub const PER_LAYER: [MetricDef; 79] = [
    layer("agent.syscalls", "count", "lower", V),
    layer("agent.host_self_s", "s", "lower", H),
    layer("agent.virt_self_s", "s", "lower", V),
    layer("agent.failed", "count", "lower", V),
    layer("agent.lock_conflicts", "count", "lower", V),
    layer("agent.anchor_retries", "count", "lower", V),
    layer("agent.backpressure_stalls", "count", "lower", V),
    layer("chunking.rechunked_bytes_per_user_byte", "B/B", "lower", V),
    layer("chunking.kernel_cdc_mib_per_s", "MiB/s", "higher", H),
    layer("chunking.kernel_fixed_mib_per_s", "MiB/s", "higher", H),
    layer("chunking.kernel_manifest_codec_per_s", "1/s", "higher", H),
    layer("crypto.kernel_sha256_mib_per_s", "MiB/s", "higher", H),
    layer("crypto.kernel_chacha20_mib_per_s", "MiB/s", "higher", H),
    layer("crypto.kernel_rs_encode_mib_per_s", "MiB/s", "higher", H),
    layer("crypto.kernel_rs_decode_mib_per_s", "MiB/s", "higher", H),
    layer("crypto.kernel_shamir_per_s", "1/s", "higher", H),
    layer("cache.mem_hit_ratio", "ratio", "higher", V),
    layer("cache.disk_hit_ratio", "ratio", "higher", V),
    layer("cache.byte_hit_ratio", "ratio", "higher", V),
    layer("cache.evictions", "count", "lower", V),
    layer("cache.demotions", "count", "lower", V),
    layer("cache.promotions", "count", "lower", V),
    layer("cache.policy_steps", "count", "lower", V),
    layer("cache.kernel_lru_ops_per_s", "1/s", "higher", H),
    layer("transfer.waves", "count", "lower", V),
    layer("transfer.chunks_up", "count", "lower", V),
    layer("transfer.chunks_down", "count", "lower", V),
    layer("transfer.prefetched_chunks", "count", "higher", V),
    layer("transfer.range_reads", "count", "higher", V),
    layer("backend.calls", "count", "lower", V),
    layer("backend.host_self_s", "s", "lower", H),
    layer("backend.virt_self_s", "s", "lower", V),
    layer("backend.virt_background_s", "s", "lower", V),
    layer("backend.failed", "count", "lower", V),
    layer("backend.write_version_p50_vs", "s", "lower", V),
    layer("backend.read_chunk_p50_vs", "s", "lower", V),
    layer("chunkstore.dedup_hit_ratio", "ratio", "higher", V),
    layer("chunkstore.gc_runs", "count", "higher", V),
    layer("chunkstore.gc_reclaimed_versions", "count", "higher", V),
    layer("chunkstore.gc_errors", "count", "lower", V),
    layer("chunkstore.gc_retried", "count", "lower", V),
    layer("chunkstore.pending_releases_end", "count", "lower", V),
    layer("chunkstore.orphans_end", "count", "lower", V),
    layer("depsky.kernel_write_blob_mib_per_s", "MiB/s", "higher", H),
    layer("depsky.kernel_read_blob_mib_per_s", "MiB/s", "higher", H),
    layer("cloud.puts", "count", "lower", V),
    layer("cloud.gets", "count", "lower", V),
    layer("cloud.deletes", "count", "lower", V),
    layer("cloud.lists_heads", "count", "lower", V),
    layer("cloud.put_bytes", "B", "lower", V),
    layer("cloud.get_bytes", "B", "lower", V),
    layer("cloud.errors", "count", "lower", V),
    layer("cloud.requests_per_syscall", "ratio", "lower", V),
    layer("cloud.host_s", "s", "lower", H),
    layer("cloud.virt_busy_s", "s", "lower", V),
    layer("cloud.microdollars", "uUSD", "lower", V),
    layer("cloud.stored_bytes_end", "B", "lower", V),
    layer("cloud.kernel_put_get_per_s", "1/s", "higher", H),
    layer("coord.calls", "count", "lower", V),
    layer("coord.reads", "count", "lower", V),
    layer("coord.writes", "count", "lower", V),
    layer("coord.lock_ops", "count", "lower", V),
    layer("coord.calls_per_syscall", "ratio", "lower", V),
    layer("coord.failed", "count", "lower", V),
    layer("coord.host_s", "s", "lower", H),
    layer("coord.virt_s", "s", "lower", V),
    layer("coord.call_p50_vs", "s", "lower", V),
    layer("coord.call_p99_vs", "s", "lower", V),
    layer("coord.kernel_store_apply_per_s", "1/s", "higher", H),
    layer("coord.kernel_abd_read_per_s", "1/s", "higher", H),
    layer("coord.kernel_abd_write_per_s", "1/s", "higher", H),
    layer("placement.kernel_decisions_per_s", "1/s", "higher", H),
    layer("sim.kernel_fork_join_per_s", "1/s", "higher", H),
    layer("sim.events_per_host_s", "1/s", "higher", H),
    layer("driver.host_self_s", "s", "lower", H),
    layer("driver.wall_s", "s", "lower", H),
    layer("driver.cpu_wall_ratio", "ratio", "higher", H),
    layer("driver.calib_mops_per_s", "1/s", "higher", H),
    layer("driver.trace_overhead_ratio", "ratio", "lower", H),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// The metric it belongs to.
    pub def: &'static MetricDef,
    /// The value as measured.
    pub value: f64,
    /// Sample count behind a latency percentile, when there is one.
    pub samples: Option<usize>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pools the cycles of an untraced run into the end-to-end metrics.
/// Latencies and virtual ratios pool every cycle's samples and counters.
/// `host_ops_per_s` is the best cycle's rate: interference from other
/// tenants of the host only ever slows a cycle down, in bursts longer than a
/// cycle, so the fastest of four is the steadiest estimate of what the code
/// costs. `setup_s` is the median over the cycles.
pub fn end_to_end(cycles: &[CycleResult], peak_rss_mib: f64) -> Vec<Value> {
    let mut close = Samples::default();
    let mut read = Samples::default();
    let mut stat = Samples::default();
    let mut mdwrite = Samples::default();
    let (mut ops, mut makespan, mut wire, mut user, mut dollars) = (0u64, 0u64, 0u64, 0u64, 0.0);
    let (mut stored, mut live) = (0u64, 0u64);
    for c in cycles {
        close.merge(&c.close);
        read.merge(&c.read);
        stat.merge(&c.stat);
        mdwrite.merge(&c.mdwrite);
        ops += c.timed_ops;
        makespan += c.makespan_ns;
        wire += c.cloud.put_bytes + c.cloud.get_bytes;
        user += c.user_bytes;
        dollars += c.cloud.microdollars;
        stored += c.stored_bytes;
        live += c.live_bytes;
    }
    let host_rates: Vec<f64> = cycles
        .iter()
        .map(|c| ratio(c.timed_ops as f64, c.host_timed_ns as f64 / 1e9))
        .collect();
    let setups: Vec<f64> = cycles.iter().map(|c| c.setup_ns as f64 / 1e9).collect();
    let values = [
        (close.percentile_s(50.0), Some(close.len())),
        (close.percentile_s(95.0), Some(close.len())),
        (read.percentile_s(50.0), Some(read.len())),
        (read.percentile_s(95.0), Some(read.len())),
        (stat.percentile_s(50.0), Some(stat.len())),
        (stat.percentile_s(99.0), Some(stat.len())),
        (mdwrite.percentile_s(50.0), Some(mdwrite.len())),
        (ratio(ops as f64, makespan as f64 / 1e9), None),
        (ratio(wire as f64, user as f64), None),
        (ratio(dollars, ops as f64), None),
        (ratio(stored as f64, live as f64), None),
        (host_rates.iter().copied().fold(0.0, f64::max), None),
        (peak_rss_mib, None),
        (median(&setups), None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples))| Value {
            def,
            value,
            samples,
        })
        .collect()
}

/// One line per latency class with the shape of its pooled distribution, so
/// a reader can see which mode (cache hit, coordination round trip, cloud
/// fetch) each reported percentile sits in.
pub fn distribution_lines(cycles: &[CycleResult]) -> Vec<String> {
    type Pick = fn(&CycleResult) -> &Samples;
    let classes: [(&str, Pick); 4] = [
        ("close", |c| &c.close),
        ("read", |c| &c.read),
        ("stat", |c| &c.stat),
        ("mdwrite", |c| &c.mdwrite),
    ];
    classes
        .iter()
        .map(|(name, pick)| {
            let mut pooled = Samples::default();
            for c in cycles {
                pooled.merge(pick(c));
            }
            let quantiles: Vec<String> = [10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 95.0, 99.0]
                .iter()
                .map(|&p| format!("p{p}={:.6}", pooled.percentile_s(p)))
                .collect();
            format!(
                "distribution {name}_vs n={} {}",
                pooled.len(),
                quantiles.join(" ")
            )
        })
        .collect()
}

/// Percentile a latency row reports, and how many samples lie beyond it.
pub fn tail_note(def: &MetricDef, samples: usize) -> Option<String> {
    let p = if def.name.contains("_p99_") {
        99.0
    } else if def.name.contains("_p95_") {
        95.0
    } else {
        return None;
    };
    let beyond = samples_beyond(samples, p);
    (beyond < 10).then(|| {
        format!(
            "thin: {beyond} samples beyond p{p}, the set supports p{}",
            supported_tail(samples)
        )
    })
}

/// Host-side figures of a traced pass that the recorder cannot know.
#[derive(Debug, Clone, Copy)]
pub struct TracedHost {
    /// On-CPU seconds of the same cycle run untraced.
    pub untraced_cpu_s: f64,
    /// Calibration-loop rate (the slower of before and after the pass).
    pub calib_mops_per_s: f64,
}

/// Assembles the per-layer metrics of one traced cycle.
pub fn per_layer(
    cycle: &CycleResult,
    rec: &Recorder,
    kernels: &[KernelResult],
    host: TracedHost,
) -> Vec<Value> {
    let agg = |l: Layer| rec.layers[l as usize];
    let (agent, backend, cloud, coord) = (
        agg(Layer::Agent),
        agg(Layer::Backend),
        agg(Layer::Cloud),
        agg(Layer::Coord),
    );
    let s = |ns: u64| ns as f64 / 1e9;
    let c = &cycle.counters;
    let syscalls = cycle.syscalls as f64;
    let wall_s = s(cycle.wall_timed_ns);
    let cpu_s = s(cycle.host_timed_ns);
    // The agent reaches the backend through the `begin_*` twins as well as
    // the blocking forms; a row pools both.
    let p50 = |l: Layer, names: &[&'static str]| {
        let mut pooled = Samples::default();
        for name in names {
            if let Some(samples) = rec.by_name.get(&(l, *name)) {
                pooled.merge(samples);
            }
        }
        pooled.percentile_s(50.0)
    };
    let mut coord_calls = rec.layer_samples(Layer::Coord);
    let (coord_p50, coord_p99) = (
        coord_calls.percentile_s(50.0),
        coord_calls.percentile_s(99.0),
    );
    let coord_reads: u64 = COORD_READS
        .iter()
        .map(|n| rec.calls_of(Layer::Coord, n))
        .sum();
    let coord_locks: u64 = COORD_LOCK_OPS
        .iter()
        .map(|n| rec.calls_of(Layer::Coord, n))
        .sum();
    let kernel = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .map_or(0.0, |k| k.rate)
    };
    let value_of = |name: &'static str| -> f64 {
        match name {
            "agent.syscalls" => syscalls,
            "agent.host_self_s" => s(agent.host_self_ns),
            "agent.virt_self_s" => s(agent.virt_self_ns),
            "agent.failed" => agent.failed as f64,
            "agent.lock_conflicts" => cycle.lock_conflicts as f64,
            "agent.anchor_retries" => c.anchor_retries as f64,
            "agent.backpressure_stalls" => c.backpressure_stalls as f64,
            "chunking.rechunked_bytes_per_user_byte" => {
                ratio(cycle.rechunked_bytes as f64, cycle.user_written as f64)
            }
            "cache.mem_hit_ratio" => ratio(c.mem_hits as f64, (c.mem_hits + c.mem_misses) as f64),
            "cache.disk_hit_ratio" => {
                ratio(c.disk_hits as f64, (c.disk_hits + c.disk_misses) as f64)
            }
            "cache.byte_hit_ratio" => ratio(
                c.cache_bytes_hit as f64,
                (c.cache_bytes_hit + c.bytes_downloaded) as f64,
            ),
            "cache.evictions" => c.evictions as f64,
            "cache.demotions" => c.demotions as f64,
            "cache.promotions" => c.promotions as f64,
            "cache.policy_steps" => c.policy_steps as f64,
            "transfer.waves" => c.transfer_waves as f64,
            "transfer.chunks_up" => c.chunk_uploads as f64,
            "transfer.chunks_down" => c.chunk_downloads as f64,
            "transfer.prefetched_chunks" => c.prefetched_chunks as f64,
            "transfer.range_reads" => c.range_reads as f64,
            "backend.calls" => backend.calls as f64,
            "backend.host_self_s" => s(backend.host_self_ns),
            "backend.virt_self_s" => s(backend.virt_self_ns),
            "backend.virt_background_s" => s(backend.virt_background_ns),
            "backend.failed" => backend.failed as f64,
            "backend.write_version_p50_vs" => {
                p50(Layer::Backend, &["write_version", "begin_write_version"])
            }
            "backend.read_chunk_p50_vs" => p50(Layer::Backend, &["read_chunk"]),
            "chunkstore.dedup_hit_ratio" => {
                ratio(c.dedup_hits as f64, (c.dedup_hits + c.chunk_uploads) as f64)
            }
            "chunkstore.gc_runs" => c.gc_runs as f64,
            "chunkstore.gc_reclaimed_versions" => c.gc_reclaimed_versions as f64,
            "chunkstore.gc_errors" => c.gc_errors as f64,
            "chunkstore.gc_retried" => c.gc_retried as f64,
            "chunkstore.pending_releases_end" => cycle.pending_releases as f64,
            "chunkstore.orphans_end" => cycle.orphans as f64,
            "cloud.puts" => cycle.cloud.puts as f64,
            "cloud.gets" => cycle.cloud.gets as f64,
            "cloud.deletes" => cycle.cloud.deletes as f64,
            "cloud.lists_heads" => cycle.cloud.lists_heads as f64,
            "cloud.put_bytes" => cycle.cloud.put_bytes as f64,
            "cloud.get_bytes" => cycle.cloud.get_bytes as f64,
            "cloud.errors" => cycle.cloud.errors as f64,
            "cloud.requests_per_syscall" => ratio(cycle.cloud.requests as f64, syscalls),
            "cloud.host_s" => s(cloud.host_total_ns),
            "cloud.virt_busy_s" => s(cloud.virt_busy_ns),
            "cloud.microdollars" => cycle.cloud.microdollars,
            "cloud.stored_bytes_end" => cycle.stored_bytes as f64,
            "coord.calls" => coord.calls as f64,
            "coord.reads" => coord_reads as f64,
            "coord.writes" => (coord.calls - coord_reads - coord_locks) as f64,
            "coord.lock_ops" => coord_locks as f64,
            "coord.calls_per_syscall" => ratio(coord.calls as f64, syscalls),
            "coord.failed" => coord.failed as f64,
            "coord.host_s" => s(coord.host_total_ns),
            "coord.virt_s" => s(coord.virt_busy_ns),
            "coord.call_p50_vs" => coord_p50,
            "coord.call_p99_vs" => coord_p99,
            "sim.events_per_host_s" => ratio(rec.total_spans as f64, wall_s),
            // Spans are timed on the wall clock, so the driver's share is
            // what the timed phase's wall time has left after the syscalls.
            "driver.host_self_s" => (wall_s - s(rec.root_host_ns)).max(0.0),
            "driver.wall_s" => wall_s,
            "driver.cpu_wall_ratio" => ratio(cpu_s, wall_s),
            "driver.calib_mops_per_s" => host.calib_mops_per_s,
            "driver.trace_overhead_ratio" => ratio(cpu_s, host.untraced_cpu_s),
            other => kernel(other),
        }
    };
    PER_LAYER
        .iter()
        .map(|def| Value {
            def,
            value: value_of(def.name),
            samples: def
                .name
                .starts_with("coord.call_p")
                .then_some(coord_calls.len()),
        })
        .collect()
}

/// Where the traced pass's time went, layer by layer and on both clocks:
/// host self times (with the driver's share) against the timed phase's wall
/// time, foreground virtual self times against the summed syscall latency.
pub fn attribution_lines(cycle: &CycleResult, rec: &Recorder) -> Vec<String> {
    let s = |ns: u64| ns as f64 / 1e9;
    let wall = s(cycle.wall_timed_ns);
    let driver = (wall - s(rec.root_host_ns)).max(0.0);
    let mut host = format!("attribution host_self_s driver={driver:.4}");
    let mut virt = String::from("attribution virt_self_s");
    let mut background = String::from("attribution virt_background_s");
    for (i, name) in ["agent", "backend", "cloud", "coord"].iter().enumerate() {
        let l = rec.layers[i];
        host.push_str(&format!(" {name}={:.4}", s(l.host_self_ns)));
        virt.push_str(&format!(" {name}={:.4}", s(l.virt_self_ns)));
        background.push_str(&format!(" {name}={:.4}", s(l.virt_background_ns)));
    }
    let host_sum: f64 = driver + rec.layers.iter().map(|l| s(l.host_self_ns)).sum::<f64>();
    let virt_sum: u64 = rec.layers.iter().map(|l| l.virt_self_ns).sum();
    host.push_str(&format!(" sum={host_sum:.4} timed_phase_wall={wall:.4}"));
    virt.push_str(&format!(
        " sum={:.4} syscall_latency={:.4}",
        s(virt_sum),
        s(rec.root_virt_ns)
    ));
    vec![host, virt, background]
}

/// A number the JSON grammar accepts: non-finite values become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The contract's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.def.name,
                json_number(v.value),
                v.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// One printed metric line:
/// `metric <name> <value> <unit> clock=<c> better=<b> [bound=<x>] [n=<samples>] [note]`.
pub fn metric_line(v: &Value) -> String {
    let mut line = format!(
        "metric {} {} {} clock={} better={}",
        v.def.name,
        json_number(v.value),
        v.def.unit,
        v.def.clock.label(),
        v.def.better
    );
    if v.def.bound > 0.0 {
        line.push_str(&format!(" bound={}", v.def.bound));
    }
    if let Some(n) = v.samples {
        line.push_str(&format!(" n={n}"));
        if let Some(note) = tail_note(v.def, n) {
            line.push_str(&format!(" ({note})"));
        }
    }
    line
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn contract_json(run_seconds: u64, workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are used once");
    }

    #[test]
    fn committed_contract_matches_the_tables() {
        let workloads: Vec<(&str, &str)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        for (name, why) in &workloads {
            assert!(name_ok(name));
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        let generated = contract_json(crate::RUN_SECONDS, &workloads);
        assert!(generated.len() < 64 * 1024);
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            committed, generated,
            "regenerate with `benchmark/run.sh contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values = vec![Value {
            def: &END_TO_END[0],
            value: 1.25,
            samples: Some(3),
        }];
        let line = result_line(true, 0, 0, &values);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"close_p50_vs\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert!(metric_line(&values[0]).starts_with("metric close_p50_vs 1.25 s clock=virtual"));
    }

    #[test]
    fn thin_tails_are_flagged() {
        assert_eq!(tail_note(&END_TO_END[1], 300), None);
        assert!(tail_note(&END_TO_END[1], 80).unwrap().contains("thin"));
        assert_eq!(
            tail_note(&END_TO_END[0], 5),
            None,
            "medians carry no tail note"
        );
    }
}
