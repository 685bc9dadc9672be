//! `scfs-lint`: a dependency-free invariant linter for the SCFS workspace.
//!
//! Everything this repository claims about SCFS (Bessani et al., USENIX
//! ATC'14) is measured inside a deterministic simulation, which makes the
//! simulation's own invariants load-bearing: no wall-clock reads, no ambient
//! randomness, no seeded-hash iteration order leaking into simulated
//! behaviour, no `Pending<T>` completion token dropped on the floor, and a
//! crate DAG that keeps the coordination service from growing a dependency
//! on the file system it serves. Those rules used to live in module docs and
//! reviewer memory; this crate checks them mechanically.
//!
//! The linter is deliberately dependency-free — a hand-rolled, comment- and
//! string-aware tokenizer ([`scanner`]) instead of `syn` — so it builds in
//! the offline container before, and independently of, everything it checks.
//!
//! Module map:
//!
//! - [`scanner`] — tokenizer, `#[cfg(test)]` region masking, waiver comments
//! - [`config`] — rule scopes and the declared crate DAG
//! - [`rules`] — the D/C/L/E/U/W rule passes
//! - [`report`] — human and JSON output
//!
//! The binary (`scfs-lint`) wires these into the `check` and `list-rules`
//! subcommands; `check` fails on any violation not waived inline. See the
//! README's "Static analysis" section for the rule catalog and waiver syntax.

pub mod config;
pub mod report;
pub mod rules;
pub mod scanner;

use std::path::Path;

use config::LintConfig;
use rules::Violation;
use scanner::SourceFile;

/// Result of linting a whole workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Files scanned (after shim-crate exclusion).
    pub files_scanned: usize,
    /// Every violation found, waived ones included, sorted by file then line.
    pub violations: Vec<Violation>,
}

impl WorkspaceReport {
    /// Violations not covered by an inline waiver.
    pub fn active(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waived.is_none())
    }
}

/// Scans every workspace source file under `root` and runs all rules.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> Result<WorkspaceReport, String> {
    let files = scanner::workspace_files(root, &cfg.skip_crates)
        .map_err(|e| format!("scan {}: {e}", root.display()))?;
    let mut report = WorkspaceReport::default();
    for file in files {
        let src = std::fs::read_to_string(&file.path)
            .map_err(|e| format!("read {}: {e}", file.rel_path))?;
        let sf = SourceFile::parse(&file.rel_path, &file.crate_name, &src);
        report.violations.extend(rules::lint_file(&sf, cfg));
        report.files_scanned += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}
