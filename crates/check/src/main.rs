//! The `scfs-check` binary.
//!
//! ```text
//! scfs-check explore [--scenario NAME|all] [--seed N] [--budget smoke|deep|runs=N,preempt=K]
//!                    [--emit-schedule PATH] [--json PATH]
//! scfs-check replay PATH... [--json PATH]
//! ```
//!
//! `explore` enumerates schedules and exits 0 when it finds zero invariant
//! violations. A violation is shrunk and, with `--emit-schedule`, written as
//! a replayable blob; that is how a checked-in mutant
//! (`tests/mutants/*.patch`) gets its witness. `replay` re-executes
//! committed schedule blobs (files or directories of `*.sched`) and exits 0
//! when every pinned expectation holds. Exit codes: 0 ok, 1 findings/drift, 2 usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::blob::Schedule;
use check::explore::{explore, ExploreConfig};
use check::scenario::ScenarioKind;
use check::shrink::shrink;

struct ExploreArgs {
    scenarios: Vec<ScenarioKind>,
    seed: u64,
    budget: ExploreConfig,
    emit_schedule: Option<PathBuf>,
    json: Option<PathBuf>,
}

struct ReplayArgs {
    paths: Vec<PathBuf>,
    json: Option<PathBuf>,
}

fn usage() -> String {
    "usage: scfs-check <explore|replay> [args]\n  \
     explore [--scenario NAME|all] [--seed N] [--budget smoke|deep|runs=N,preempt=K]\n          \
     [--emit-schedule PATH] [--json PATH]\n  \
     replay PATH... [--json PATH]"
        .to_string()
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn run_explore(args: ExploreArgs) -> Result<bool, String> {
    let started = Instant::now();
    let mut ok = true;
    let mut json_entries = Vec::new();
    for &scenario in &args.scenarios {
        let t0 = Instant::now();
        let report = explore(scenario, args.seed, &args.budget);
        let elapsed = t0.elapsed();
        println!(
            "scfs-check: {}: {} schedules ({} distinct traces, {} pruned, {} choice points max) in {:.2}s",
            scenario.name(),
            report.schedules,
            report.distinct_traces,
            report.pruned_subtrees,
            report.max_choice_points,
            elapsed.as_secs_f64()
        );
        let mut shrunk_len = None;
        let mut violation_names = Vec::new();
        if let Some(witness) = report.first_violation {
            violation_names = witness
                .outcome
                .violations
                .iter()
                .map(|v| v.name.to_string())
                .collect();
            println!(
                "scfs-check: {}: VIOLATION under {:?}: {}",
                scenario.name(),
                witness.decisions,
                witness
                    .outcome
                    .violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
            let (minimal, shrink_runs) = shrink(&witness.decisions, |d| {
                !scenario.run(args.seed, d).violations.is_empty()
            });
            let outcome = scenario.run(args.seed, &minimal);
            println!(
                "scfs-check: {}: shrunk to {:?} ({} verification runs)",
                scenario.name(),
                minimal,
                shrink_runs
            );
            shrunk_len = Some(minimal.len());
            if let Some(path) = &args.emit_schedule {
                let sched = Schedule::from_run(scenario, args.seed, minimal.clone(), &outcome);
                std::fs::write(path, sched.serialize(&outcome.records))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("scfs-check: wrote {}", path.display());
            }
            ok = false;
        }
        json_entries.push(format!(
            "{{\"scenario\":\"{}\",\"seed\":{},\"schedules\":{},\"distinct_traces\":{},\"pruned_subtrees\":{},\"max_choice_points\":{},\"elapsed_ms\":{},\"violations\":[{}],\"shrunk_len\":{}}}",
            scenario.name(),
            args.seed,
            report.schedules,
            report.distinct_traces,
            report.pruned_subtrees,
            report.max_choice_points,
            elapsed.as_millis(),
            violation_names
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(","),
            shrunk_len.map_or("null".to_string(), |l| l.to_string()),
        ));
    }
    if let Some(path) = &args.json {
        let body = format!(
            "{{\"ok\":{ok},\"elapsed_ms\":{},\"explorations\":[{}]}}\n",
            started.elapsed().as_millis(),
            json_entries.join(",")
        );
        std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(ok)
}

fn collect_blobs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "sched"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("no *.sched blobs under {}", path.display()));
            }
            out.extend(entries);
        } else {
            out.push(path.clone());
        }
    }
    Ok(out)
}

fn run_replay(args: ReplayArgs) -> Result<bool, String> {
    let blobs = collect_blobs(&args.paths)?;
    let mut ok = true;
    let mut json_entries = Vec::new();
    for path in &blobs {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let result = Schedule::parse(&text).and_then(|sched| sched.replay().map(|o| (sched, o)));
        let (status, detail) = match &result {
            Ok((sched, _)) => (
                "ok",
                format!(
                    "{} seed {} ({} decisions)",
                    sched.scenario.name(),
                    sched.seed,
                    sched.decisions.iter().filter(|&&d| d != 0).count()
                ),
            ),
            Err(e) => {
                ok = false;
                ("FAILED", e.clone())
            }
        };
        println!(
            "scfs-check: replay {}: {status}: {detail}",
            display_rel(path)
        );
        json_entries.push(format!(
            "{{\"blob\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
            json_escape(&display_rel(path)),
            result.is_ok(),
            json_escape(&detail),
        ));
    }
    if let Some(path) = &args.json {
        let body = format!("{{\"ok\":{ok},\"replays\":[{}]}}\n", json_entries.join(","));
        std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(ok)
}

fn display_rel(path: &Path) -> String {
    path.display().to_string().replace('\\', "/")
}

fn parse_explore(mut argv: std::env::Args) -> Result<ExploreArgs, String> {
    let mut args = ExploreArgs {
        scenarios: ScenarioKind::all().to_vec(),
        seed: 7,
        budget: ExploreConfig::smoke(),
        emit_schedule: None,
        json: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scenario" => {
                let v = value()?;
                args.scenarios = if v == "all" {
                    ScenarioKind::all().to_vec()
                } else {
                    vec![ScenarioKind::parse(&v).ok_or_else(|| format!("unknown scenario: {v}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--budget" => args.budget = ExploreConfig::parse(&value()?)?,
            "--emit-schedule" => args.emit_schedule = Some(PathBuf::from(value()?)),
            "--json" => args.json = Some(PathBuf::from(value()?)),
            _ => return Err(usage()),
        }
    }
    Ok(args)
}

fn parse_replay(argv: std::env::Args) -> Result<ReplayArgs, String> {
    let mut args = ReplayArgs {
        paths: Vec::new(),
        json: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => {
                let v = argv.next().ok_or("--json needs a value")?;
                args.json = Some(PathBuf::from(v));
            }
            _ if flag.starts_with("--") => return Err(usage()),
            _ => args.paths.push(PathBuf::from(flag)),
        }
    }
    if args.paths.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let mut argv = std::env::args();
    let _bin = argv.next();
    match argv.next().as_deref() {
        Some("explore") => run_explore(parse_explore(argv)?),
        Some("replay") => run_replay(parse_replay(argv)?),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scfs-check: {e}");
            ExitCode::from(2)
        }
    }
}
