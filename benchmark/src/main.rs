//! The SCFS benchmark: four closed-loop workloads on two clocks with a
//! seam-traced per-layer ledger. See `README.md` for the glossary.
//!
//! ```text
//! scfs-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! scfs-benchmark compare A B      # two captured outputs of one workload
//! scfs-benchmark contract         # prints BENCHMARK.json from the tables
//! scfs-benchmark list             # prints the workload names
//! ```
//!
//! A run prints every metric by name with its unit, the op-trace hash and,
//! as its last line, the contract's JSON result object.

mod compare;
mod decorators;
mod driver;
mod env;
mod hostclock;
mod kernels;
mod report;
mod rng;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use driver::CycleResult;
use hostclock::HostClock;
use rng::derive_seed;
use workloads::Workload;

/// The `run_seconds` of `BENCHMARK.json`: what one run is sized for.
pub const RUN_SECONDS: u64 = 20;
/// One cycle (fresh deployment, set-up, one seeded operation sequence) is
/// sized to about five host seconds at the seed commit on the reference box,
/// so `--seconds S` runs `S / 5` cycles. Operation counts per cycle are
/// frozen; a faster program finishes sooner, it is not given more work.
const SECONDS_PER_CYCLE: u64 = 5;
/// `--smoke` divides the frozen operation counts by this.
const SMOKE_DIVISOR: usize = 20;
/// Default seed (the paper's presentation date).
const DEFAULT_SEED: u64 = 20140614;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(1..=600).contains(&out.seconds) {
        return Err("--seconds must be in 1..=600".to_string());
    }
    Ok(out)
}

fn print_cycle(index: usize, c: &CycleResult) {
    println!(
        "cycle {index}: ops={} attempted={} failed={} host_s={:.3} setup_s={:.3} \
         makespan_vs={:.3} hash={:016x} calib_mops={:.0} calib_mloads={:.1}",
        c.timed_ops,
        c.attempted,
        c.failed,
        c.host_timed_ns as f64 / 1e9,
        c.setup_ns as f64 / 1e9,
        c.makespan_ns as f64 / 1e9,
        c.hash,
        hostclock::calibration_mops_per_s(),
        hostclock::calibration_mloads_per_s()
    );
    for p in &c.problems {
        println!("  problem: {p}");
    }
}

/// What one run reports.
struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<report::Value>,
    hash: u64,
}

/// Folds the per-cycle op-trace hashes into the run's hash.
fn run_hash(cycles: &[CycleResult]) -> u64 {
    cycles.iter().fold(shadow::FNV_OFFSET, |h, c| {
        shadow::fnv1a(h, &c.hash.to_le_bytes())
    })
}

fn run_untraced(w: &Workload, args: &Args, host: &HostClock) -> RunOutput {
    let (cycles, divisor) = if args.smoke {
        (1, SMOKE_DIVISOR)
    } else {
        ((args.seconds / SECONDS_PER_CYCLE).max(1), 1)
    };
    let results: Vec<CycleResult> = (0..cycles)
        .map(|k| {
            let c = (w.run_cycle)(derive_seed(args.seed, k), false, divisor, host);
            print_cycle(k as usize, &c);
            c
        })
        .collect();
    let correct = results.iter().all(|c| c.problems.is_empty());
    let attempted = results.iter().map(|c| c.attempted).sum();
    let failed = results.iter().map(|c| c.failed).sum();
    let values = report::end_to_end(&results, hostclock::peak_rss_mib());
    for line in report::distribution_lines(&results) {
        println!("{line}");
    }
    RunOutput {
        correct,
        attempted,
        failed,
        values,
        hash: run_hash(&results),
    }
}

fn run_traced(w: &Workload, args: &Args, host: &HostClock) -> RunOutput {
    let divisor = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let seed = derive_seed(args.seed, 0);
    let calib_before = hostclock::calibration_mops_per_s();
    // The same cycle three times: bare (the reference timeline; it also pays
    // the allocator's first-touch cost so the next two do not), then with
    // every seam decorated, then bare again as the denominator of the
    // tracing overhead.
    let reference = (w.run_cycle)(seed, false, divisor, host);
    print_cycle(0, &reference);
    trace::install(seed);
    let mut traced = (w.run_cycle)(seed, true, divisor, host);
    print_cycle(1, &traced);
    let rec = trace::take().expect("recorder was installed above");
    let bare = (w.run_cycle)(seed, false, divisor, host);
    print_cycle(2, &bare);
    let calib_after = hostclock::calibration_mops_per_s();
    for other in [&reference, &bare] {
        if traced.hash != other.hash || traced.makespan_ns != other.makespan_ns {
            traced.problems.push(format!(
                "tracing changed the virtual timeline: hash {:016x} vs {:016x}",
                traced.hash, other.hash
            ));
        }
    }
    let layers_virt: u64 = rec.layers.iter().map(|l| l.virt_self_ns).sum();
    if layers_virt != rec.root_virt_ns {
        traced.problems.push(format!(
            "virtual self times sum to {layers_virt} ns, syscall latency is {} ns",
            rec.root_virt_ns
        ));
    }
    let kernel_budget = if args.smoke {
        0.02
    } else {
        args.seconds as f64 / 50.0
    };
    let kernels = kernels::run_all(seed, kernel_budget);
    for k in kernels.iter().filter(|k| !k.scales) {
        println!(
            "note: kernel {} did not scale linearly with its batch size",
            k.name
        );
    }
    let values = report::per_layer(
        &traced,
        &rec,
        &kernels,
        report::TracedHost {
            untraced_cpu_s: bare.host_timed_ns as f64 / 1e9,
            calib_mops_per_s: calib_before.min(calib_after),
        },
    );
    for line in report::attribution_lines(&traced, &rec) {
        println!("{line}");
    }
    match write_chrome_trace(w.name, &rec) {
        Ok(path) => println!(
            "chrome trace of {} sampled operations: {path}",
            rec.sampled.len()
        ),
        Err(e) => println!("note: chrome trace not written: {e}"),
    }
    let correct = [&reference, &traced, &bare]
        .iter()
        .all(|c| c.problems.is_empty());
    RunOutput {
        correct,
        attempted: traced.attempted,
        failed: traced.failed,
        values,
        hash: traced.hash,
    }
}

/// Writes the sampled operations next to the benchmark's sources (inside the
/// checkout, git-ignored; `run.sh` passes the directory) and returns the path.
fn write_chrome_trace(workload: &str, rec: &trace::Recorder) -> std::io::Result<String> {
    let dir = std::env::var_os("SCFS_BENCH_OUT")
        .map_or_else(|| std::path::Path::new("benchmark").join("out"), Into::into);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, rec.chrome_trace_json())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: scfs-benchmark compare A B");
                return ExitCode::from(2);
            };
            return compare::run(a, b);
        }
        Some("contract") => {
            let workloads: Vec<(&str, &str)> = workloads::WORKLOADS
                .iter()
                .map(|w| (w.name, w.why))
                .collect();
            print!("{}", report::contract_json(RUN_SECONDS, &workloads));
            return ExitCode::SUCCESS;
        }
        Some("list") => {
            for w in &workloads::WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scfs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::by_name(&args.workload) else {
        eprintln!("scfs-benchmark: no workload named {}", args.workload);
        return ExitCode::from(2);
    };
    let host = HostClock::new();
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        workload.name, args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "machine {} on_cpu_clock={}",
        hostclock::machine_facts(),
        host.has_on_cpu()
    );
    let out = if args.trace {
        run_traced(workload, &args, &host)
    } else {
        run_untraced(workload, &args, &host)
    };
    for v in &out.values {
        println!("{}", report::metric_line(v));
    }
    println!("trace_hash {:016x}", out.hash);
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.values)
    );
    ExitCode::SUCCESS
}
