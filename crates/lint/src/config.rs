//! The lint configuration: rule scopes, the declared crate DAG and module
//! rules.
//!
//! The configuration is code, not a config file: the invariants it encodes
//! (which crates are order-sensitive, which crate may import which) change
//! only when the workspace architecture changes, and a PR that changes the
//! architecture should change the linter's view of it in the same diff.
//! Everything here is data, so a test — or a future config file — can build
//! a different [`LintConfig`] without touching the rules.

use std::collections::{BTreeMap, BTreeSet};

/// A module-scoped layering rule (the L002 family): within one module — a
/// file, or a directory and everything nested under it — a set of
/// identifiers is banned outright.
#[derive(Debug, Clone)]
pub struct ModuleRule {
    /// Workspace-relative path prefix of the files the rule applies to: a
    /// file path, or a directory path ending in `/`.
    pub path_prefix: &'static str,
    /// Identifiers that must not appear in those files' non-test code.
    pub banned_idents: &'static [&'static str],
    /// Why — shown in the violation message.
    pub why: &'static str,
}

/// Scopes and structure the rules check against.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose simulated behaviour is order-sensitive: the D-rules
    /// (wall-clock, ambient randomness, seeded-hash iteration) apply to
    /// their non-test code.
    pub order_sensitive_crates: BTreeSet<String>,
    /// Crates whose non-test code must not `unwrap`/`expect`/`panic` — the
    /// data path, where a recoverable cloud fault must stay recoverable.
    pub error_path_crates: BTreeSet<String>,
    /// The crate that owns virtual time; C001 checks its declarations.
    pub clock_home_crate: String,
    /// Crates whose non-test code must thread `&Clock` instead of creating
    /// ambient clocks (C003). Workload/bench harnesses are the legitimate
    /// clock roots and are left out.
    pub ambient_clock_crates: BTreeSet<String>,
    /// Crates allowed to implement `ScheduleController` in non-test code
    /// (C004): the seam's home and the model checker. Anyone else
    /// implementing the trait is smuggling schedule nondeterminism into
    /// production code paths.
    pub schedule_controller_crates: BTreeSet<String>,
    /// The declared crate DAG: crate → crates it may import (L001). Crates
    /// not listed may import nothing from the workspace.
    pub dag: BTreeMap<String, BTreeSet<String>>,
    /// Module-scoped bans (L002).
    pub module_rules: Vec<ModuleRule>,
    /// Workspace-relative paths of the only files that may say `unsafe`
    /// (U001): the `std::arch` kernels, each behind run-time CPU detection.
    pub unsafe_allowed_files: BTreeSet<String>,
    /// Vendored shim crates that are never scanned (they exist to wrap the
    /// very constructs the D-rules forbid).
    pub skip_crates: Vec<String>,
    /// Every workspace crate name (underscored) — used to tell workspace
    /// imports apart from `std`/`core` paths in L001.
    pub workspace_crates: BTreeSet<String>,
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut dag = BTreeMap::new();
        let mut allow = |krate: &str, deps: &[&str]| {
            dag.insert(krate.to_string(), set(deps));
        };
        // Mirrors the `[dependencies]` sections of the crate manifests; a
        // crate acquiring a new workspace dependency must be added here,
        // which is the point — the DAG is reviewed, not inferred.
        allow("sim_core", &["parking_lot", "proptest"]);
        allow("scfs_crypto", &["proptest"]);
        allow("cloud_store", &["sim_core", "parking_lot"]);
        allow(
            "placement",
            &["sim_core", "cloud_store", "parking_lot", "proptest"],
        );
        allow(
            "depsky",
            &[
                "sim_core",
                "cloud_store",
                "scfs_crypto",
                "placement",
                "parking_lot",
                "proptest",
            ],
        );
        allow("coord", &["sim_core", "cloud_store", "parking_lot"]);
        allow(
            "scfs",
            &[
                "sim_core",
                "cloud_store",
                "scfs_crypto",
                "depsky",
                "placement",
                "coord",
                "parking_lot",
            ],
        );
        allow(
            "baselines",
            &["sim_core", "cloud_store", "scfs", "scfs_crypto"],
        );
        allow(
            "workloads",
            &[
                "sim_core",
                "cloud_store",
                "scfs_crypto",
                "depsky",
                "placement",
                "coord",
                "scfs",
                "baselines",
            ],
        );
        allow(
            "bench",
            &[
                "sim_core",
                "cloud_store",
                "workloads",
                "coord",
                "scfs",
                "placement",
            ],
        );
        allow("lint", &[]);
        allow(
            "check",
            &[
                "sim_core",
                "cloud_store",
                "coord",
                "scfs",
                "parking_lot",
                "proptest",
            ],
        );
        allow(
            "scfs_repro",
            &[
                "sim_core",
                "cloud_store",
                "scfs_crypto",
                "depsky",
                "placement",
                "coord",
                "scfs",
                "baselines",
                "workloads",
                "proptest",
            ],
        );
        LintConfig {
            order_sensitive_crates: set(&[
                "sim_core",
                "scfs",
                "coord",
                "depsky",
                "placement",
                "workloads",
            ]),
            error_path_crates: set(&["scfs", "coord", "depsky", "placement"]),
            clock_home_crate: "sim_core".to_string(),
            ambient_clock_crates: set(&["scfs", "coord", "depsky", "placement"]),
            schedule_controller_crates: set(&["sim_core", "check"]),
            dag,
            module_rules: vec![ModuleRule {
                path_prefix: "crates/scfs/src/agent/",
                banned_idents: &["CloudStore", "SimulatedCloud", "sim_cloud"],
                why: "the agent must route all blob I/O through \
                      scfs::transfer / scfs::chunkstore (FileStorage), \
                      never call backend blob APIs directly",
            }],
            unsafe_allowed_files: set(&[
                "crates/scfs-crypto/src/sha256.rs",
                "crates/scfs-crypto/src/chacha20.rs",
                "crates/scfs-crypto/src/gf256.rs",
            ]),
            skip_crates: vec!["parking_lot".to_string(), "proptest".to_string()],
            workspace_crates: set(&[
                "sim_core",
                "cloud_store",
                "scfs_crypto",
                "depsky",
                "placement",
                "coord",
                "scfs",
                "baselines",
                "workloads",
                "bench",
                "lint",
                "check",
                "parking_lot",
                "proptest",
                "scfs_repro",
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_forbids_coord_importing_scfs() {
        let cfg = LintConfig::default();
        let coord = cfg.dag.get("coord").unwrap();
        assert!(!coord.contains("scfs"));
        assert!(!coord.contains("depsky"));
        assert!(coord.contains("sim_core"));
    }

    #[test]
    fn shims_are_skipped_not_linted() {
        let cfg = LintConfig::default();
        assert!(cfg.skip_crates.contains(&"proptest".to_string()));
        assert!(!cfg.order_sensitive_crates.contains("proptest"));
    }
}
