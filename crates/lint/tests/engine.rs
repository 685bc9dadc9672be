//! End-to-end tests of the lint engine: the committed fixtures under
//! `fixtures/` (positive files must trip their rules, negative files must
//! stay clean), a synthetic workspace that `check` must fail, and this
//! repository itself, which must carry zero active violations.

use std::fs;
use std::path::{Path, PathBuf};

use lint::config::LintConfig;
use lint::lint_workspace;
use lint::rules::{lint_file, Violation};
use lint::scanner::SourceFile;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

/// Lints a fixture as though it were `crates/<crate>/src/<name>`.
fn lint_fixture(name: &str, crate_name: &str) -> Vec<Violation> {
    let src = fixture(name);
    let rel = format!("crates/{crate_name}/src/{name}");
    let sf = SourceFile::parse(&rel, crate_name, &src);
    lint_file(&sf, &LintConfig::default())
}

fn active_rules(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations
        .iter()
        .filter(|v| v.waived.is_none())
        .map(|v| v.rule)
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn determinism_fixtures() {
    let pos = lint_fixture("determinism_positive.rs", "scfs");
    let rules = active_rules(&pos);
    for rule in ["D001", "D002", "D003", "D004"] {
        assert!(rules.contains(&rule), "expected {rule} in {rules:?}");
    }

    let neg = lint_fixture("determinism_negative.rs", "scfs");
    assert!(
        active_rules(&neg).iter().all(|r| !r.starts_with('D')),
        "false positives: {neg:?}"
    );
}

#[test]
fn clock_fixtures() {
    let pos = lint_fixture("clock_positive.rs", "scfs");
    let rules = active_rules(&pos);
    assert!(rules.contains(&"C002"), "expected C002 in {rules:?}");
    assert!(rules.contains(&"C003"), "expected C003 in {rules:?}");
    assert_eq!(
        pos.iter().filter(|v| v.rule == "C002").count(),
        2,
        "both dropped tokens: {pos:?}"
    );

    let neg = lint_fixture("clock_negative.rs", "scfs");
    assert!(
        active_rules(&neg).iter().all(|r| !r.starts_with('C')),
        "false positives: {neg:?}"
    );
}

#[test]
fn layering_fixtures() {
    let pos = lint_fixture("layering_positive.rs", "coord");
    assert_eq!(
        pos.iter().filter(|v| v.rule == "L001").count(),
        2,
        "use item and inline path: {pos:?}"
    );

    let neg = lint_fixture("layering_negative.rs", "coord");
    assert!(active_rules(&neg).is_empty(), "false positives: {neg:?}");
}

#[test]
fn error_fixtures() {
    let pos = lint_fixture("errors_positive.rs", "scfs");
    let rules = active_rules(&pos);
    for rule in ["E001", "E002", "E003"] {
        assert!(rules.contains(&rule), "expected {rule} in {rules:?}");
    }

    let neg = lint_fixture("errors_negative.rs", "scfs");
    assert!(active_rules(&neg).is_empty(), "false positives: {neg:?}");
    // The waived unwrap is still reported, marked waived.
    assert!(neg.iter().any(|v| v.rule == "E001" && v.waived.is_some()));
}

#[test]
fn safety_fixtures() {
    let u001 = |vs: &[Violation]| -> Vec<u32> {
        let hits = vs.iter().filter(|v| v.rule == "U001" && v.waived.is_none());
        hits.map(|v| v.line).collect()
    };
    let cfg = LintConfig::default();
    let kernel = cfg.unsafe_allowed_files.iter().next().unwrap();
    let lint_as_kernel = |name: &str| {
        lint_file(
            &SourceFile::parse(kernel, "scfs_crypto", &fixture(name)),
            &cfg,
        )
    };

    // Outside the allow list every `unsafe` fires, test code included.
    let pos = lint_fixture("safety_positive.rs", "scfs_crypto");
    assert_eq!(u001(&pos).len(), 5, "{pos:?}");
    // Inside it, the ones not directly under a `// SAFETY:` comment.
    let pos = lint_as_kernel("safety_positive.rs");
    assert_eq!(u001(&pos), [12, 17, 22], "{pos:?}");

    let neg = lint_as_kernel("safety_negative.rs");
    assert!(active_rules(&neg).is_empty(), "false positives: {neg:?}");
}

/// Builds a minimal fake workspace on disk under the cargo test tmpdir.
fn synth_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, contents).unwrap();
    }
    root
}

/// The acceptance scenario: a tree with a synthetic `Instant::now()`, a
/// layering violation and a dropped `Pending` must fail `check` (active
/// violations are failures).
#[test]
fn check_fails_on_synthetic_violations() {
    let root = synth_workspace(
        "synth-dirty",
        &[
            (
                "crates/scfs/src/lib.rs",
                "pub fn bad() { let t = Instant::now(); drop(t); }\n",
            ),
            ("crates/coord/src/lib.rs", "use scfs::agent::ScfsAgent;\n"),
            (
                "crates/depsky/src/lib.rs",
                "fn drop_token(s: &mut Sched) { let _ = s.spawn(now, None, job); }\n",
            ),
            // The agent module is a directory: its rule follows nested files.
            (
                "crates/scfs/src/agent/fetch/direct.rs",
                "use cloud_store::sim_cloud::SimulatedCloud;\n",
            ),
        ],
    );
    let cfg = LintConfig::default();
    let report = lint_workspace(&root, &cfg).unwrap();
    let rules = active_rules(&report.violations);
    assert!(rules.contains(&"D001"), "synthetic Instant: {rules:?}");
    assert!(rules.contains(&"L001"), "synthetic layering: {rules:?}");
    assert!(rules.contains(&"C002"), "dropped Pending: {rules:?}");
    assert!(rules.contains(&"L002"), "blob API in the agent: {rules:?}");
    assert!(report.active().count() >= 4);
}

/// A clean synthetic tree passes.
#[test]
fn check_passes_on_clean_tree() {
    let root = synth_workspace(
        "synth-clean",
        &[(
            "crates/scfs/src/lib.rs",
            "pub fn good(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
        )],
    );
    let cfg = LintConfig::default();
    let report = lint_workspace(&root, &cfg).unwrap();
    assert_eq!(report.violations.len(), 0);
}

/// This repository has zero active violations — the same invariant CI
/// enforces, minus the process spawn.
#[test]
fn repository_has_zero_active_violations() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let report = lint_workspace(repo_root, &LintConfig::default()).unwrap();
    let active: Vec<_> = report.active().collect();
    assert!(active.is_empty(), "unwaived violations: {active:?}");
}
