//! The `scfs-lint` binary.
//!
//! ```text
//! scfs-lint check [--root DIR] [--json PATH]
//! scfs-lint list-rules [--markdown]
//! ```
//!
//! `check` exits 0 when the tree carries no violation that is not waived
//! inline, 1 otherwise, 2 on usage or I/O errors. `list-rules` prints the
//! rule catalog with scopes rendered from the live config; `--markdown` emits
//! the exact table the README embeds, so the docs are generated, not
//! maintained.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::config::LintConfig;
use lint::{lint_workspace, report};

struct Args {
    command: String,
    root: PathBuf,
    json: Option<PathBuf>,
    markdown: bool,
}

fn usage() -> String {
    "usage: scfs-lint <check|list-rules> [--root DIR] [--json PATH] [--markdown]".to_string()
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _bin = argv.next();
    let command = argv.next().ok_or_else(usage)?;
    if command != "check" && command != "list-rules" {
        return Err(usage());
    }
    let mut root = PathBuf::from(".");
    let mut json = None;
    let mut markdown = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => root = PathBuf::from(value()?),
            "--json" => json = Some(PathBuf::from(value()?)),
            "--markdown" => markdown = true,
            _ => return Err(usage()),
        }
    }
    Ok(Args {
        command,
        root,
        json,
        markdown,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args())?;
    let cfg = LintConfig::default();
    match args.command.as_str() {
        "list-rules" => {
            if args.markdown {
                print!("{}", lint::rules::catalog_markdown(&cfg));
            } else {
                for r in lint::rules::rule_catalog(&cfg) {
                    println!("{}  {:<12} {}", r.id, r.class, r.summary);
                    println!("      scope: {}", r.scope);
                }
            }
            Ok(true)
        }
        _ => {
            let report = lint_workspace(&args.root, &cfg)?;
            if let Some(json_path) = &args.json {
                std::fs::write(
                    json_path,
                    report::to_json(report.files_scanned, &report.violations),
                )
                .map_err(|e| format!("write {}: {e}", json_path.display()))?;
            }
            print!(
                "{}",
                report::to_text(report.files_scanned, &report.violations)
            );
            Ok(report.active().count() == 0)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scfs-lint: {e}");
            ExitCode::from(2)
        }
    }
}
