//! The code-level invariants (README "Static analysis") inside tier-1
//! `cargo test`: the lints the manifests and `clippy.toml` files declare
//! report nothing on this tree, and the one invariant no lint expresses —
//! who may implement `ScheduleController` — is checked on the source text.

use std::path::{Path, PathBuf};
use std::process::Command;

fn cargo() -> Command {
    let mut cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cargo.current_dir(env!("CARGO_MANIFEST_DIR"));
    cargo
}

#[test]
fn workspace_is_clean_under_the_declared_lints() {
    let probe = cargo().args(["clippy", "--version"]).output();
    if !probe.is_ok_and(|probe| probe.status.success()) {
        // It cannot be installed offline; CI's Clippy step has it.
        println!("skipped: this toolchain has no `clippy` component");
        return;
    }
    // Its own target directory: a `cargo` building into `target/debug` beside
    // this test would otherwise hold it on the build lock.
    let run = cargo()
        .args(["clippy", "--offline", "--all-targets"])
        .args(["--target-dir", "target/clippy", "--", "-D", "warnings"])
        .output()
        .expect("cargo runs");
    assert!(
        run.status.success(),
        "`cargo clippy --all-targets -- -D warnings` reports:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// A scheduling decision is taken by the `ScheduleController` installed on
/// the simulator: the trait's home supplies the deterministic default and
/// `scfs-check` the explorer's. Any other non-test impl would carry schedule
/// nondeterminism into a production code path.
#[test]
fn schedule_controller_is_implemented_only_by_the_seam_and_the_checker() {
    let mut files = Vec::new();
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for krate in std::fs::read_dir(crates).expect("crates/") {
        let krate = krate.expect("a crate directory").path();
        if !krate.ends_with("sim-core") && !krate.ends_with("check") {
            rust_files_under(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() > 50, "the scan found the workspace's sources");
    files.retain(|file| {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        let non_test = text.split("#[cfg(test)]").next().unwrap_or_default();
        non_test.contains("impl ScheduleController for")
    });
    assert!(
        files.is_empty(),
        "`ScheduleController` implemented outside sim-core and check: {files:?}"
    );
}
