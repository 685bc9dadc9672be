//! Parameter sweeps of Figure 10 (paper §4.4).
//!
//! Figure 10(a) varies the expiration time of the short-lived metadata
//! cache (0 / 250 / 500 ms); Figure 10(b) enables private name spaces and
//! varies the percentage of files that are shared (0 / 25 / 50 / 100 %).
//! Both use the metadata-intensive create-files and copy-files
//! micro-benchmarks on SCFS-CoC-NB.

use scfs::config::{Mode, ScfsConfig};
use scfs::fs::FileSystem;
use sim_core::rng::DetRng;
use sim_core::time::SimDuration;
use sim_core::units::Bytes;

use crate::results::{fmt_secs, Table};
use crate::setup::{build_scfs, Backend};

/// Workload size of the sweeps (create N files, copy M files of 16 KiB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of files created.
    pub create_files: usize,
    /// Number of files copied.
    pub copy_files: usize,
}

impl SweepConfig {
    /// The paper's sizes (200 created, 100 copied).
    pub fn paper() -> Self {
        SweepConfig {
            create_files: 200,
            copy_files: 100,
        }
    }

    /// Reduced sizes for tests and `reproduce --quick`.
    pub fn quick() -> Self {
        SweepConfig {
            create_files: 20,
            copy_files: 10,
        }
    }
}

/// Result of one sweep point: create and copy latency in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Create-files latency.
    pub create_s: f64,
    /// Copy-files latency.
    pub copy_s: f64,
}

fn run_create_copy(
    fs: &mut dyn FileSystem,
    cfg: SweepConfig,
    shared_fraction: f64,
    seed: u64,
) -> SweepPoint {
    let mut rng = DetRng::new(seed);
    let payload = rng.bytes(Bytes::kib(16).get() as usize);
    let dir_for = |i: usize, total: usize| -> &'static str {
        // The first `shared_fraction` of the files go to the shared tree.
        if (i as f64) < shared_fraction * total as f64 {
            "/shared"
        } else {
            "/private"
        }
    };

    let start = fs.now();
    for i in 0..cfg.create_files {
        let dir = dir_for(i, cfg.create_files);
        fs.write_file(&format!("{dir}/create/f{i}"), &payload)
            .expect("create file");
    }
    let create_s = fs.now().duration_since(start).as_secs_f64();

    for i in 0..cfg.copy_files {
        let dir = dir_for(i, cfg.copy_files);
        fs.write_file(&format!("{dir}/src/f{i}"), &payload)
            .expect("create copy source");
    }
    let start = fs.now();
    for i in 0..cfg.copy_files {
        let dir = dir_for(i, cfg.copy_files);
        let src = format!("{dir}/src/f{i}");
        // FUSE-style path resolution: the kernel looks the source up before
        // the copy proper touches it, so one application-level operation
        // reads the same metadata twice in quick succession — exactly the
        // repetition the paper's short-lived metadata cache exists to absorb
        // (§2.5.1), and what Figure 10(a) varies the expiry against.
        fs.stat(&src).expect("resolve copy source");
        fs.copy_file(&src, &format!("{dir}/dst/f{i}"))
            .expect("copy file");
    }
    let copy_s = fs.now().duration_since(start).as_secs_f64();

    SweepPoint { create_s, copy_s }
}

/// One point of Figure 10(a): SCFS-CoC-NB with the given metadata-cache
/// expiration time, no PNS (all files shared, the worst case).
pub fn metadata_cache_point(expiry: SimDuration, cfg: SweepConfig, seed: u64) -> SweepPoint {
    let mut config = ScfsConfig::paper_default(Mode::NonBlocking);
    config.metadata_cache_expiry = expiry;
    let mut fs = build_scfs(Backend::CloudOfClouds, config, seed);
    run_create_copy(&mut fs, cfg, 1.0, seed)
}

/// One point of Figure 10(b): SCFS-CoC-NB with PNS enabled and the given
/// fraction of shared files.
pub fn pns_sharing_point(shared_fraction: f64, cfg: SweepConfig, seed: u64) -> SweepPoint {
    let mut config = ScfsConfig::paper_default(Mode::NonBlocking);
    config.private_name_spaces = true;
    let mut fs = build_scfs(Backend::CloudOfClouds, config, seed);
    run_create_copy(&mut fs, cfg, shared_fraction, seed)
}

/// Runs Figure 10(a) and returns the table.
pub fn figure10a(cfg: SweepConfig, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 10(a): metadata cache expiration time vs. latency (SCFS-CoC-NB, virtual seconds)",
        vec![
            "expiration (ms)".into(),
            "create files".into(),
            "copy files".into(),
        ],
    );
    for ms in [0u64, 250, 500] {
        let p = metadata_cache_point(SimDuration::from_millis(ms), cfg, seed);
        table.push_row(vec![
            ms.to_string(),
            fmt_secs(p.create_s),
            fmt_secs(p.copy_s),
        ]);
    }
    table
}

/// Runs Figure 10(b) and returns the table.
pub fn figure10b(cfg: SweepConfig, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 10(b): % of shared files vs. latency with PNS (SCFS-CoC-NB, virtual seconds)",
        vec![
            "shared files (%)".into(),
            "create files".into(),
            "copy files".into(),
        ],
    );
    for pct in [0u32, 25, 50, 100] {
        let p = pns_sharing_point(pct as f64 / 100.0, cfg, seed);
        table.push_row(vec![
            pct.to_string(),
            fmt_secs(p.create_s),
            fmt_secs(p.copy_s),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_the_metadata_cache_degrades_performance() {
        let cfg = SweepConfig::quick();
        let without = metadata_cache_point(SimDuration::ZERO, cfg, 3);
        let with = metadata_cache_point(SimDuration::from_millis(500), cfg, 3);
        // Each copy resolves the source (the FUSE-style lookup) and then
        // reads its metadata again inside `copy_file`; the cache absorbs the
        // second read. The manifest-only copy made the rest of the operation
        // cheap, so the visible penalty is one coordination read per copy.
        assert!(
            without.copy_s > with.copy_s * 1.08,
            "no cache: {:.2}s, 500ms cache: {:.2}s",
            without.copy_s,
            with.copy_s
        );
    }

    #[test]
    fn fewer_shared_files_means_lower_latency_with_pns() {
        let cfg = SweepConfig::quick();
        let all_shared = pns_sharing_point(1.0, cfg, 4);
        let none_shared = pns_sharing_point(0.0, cfg, 4);
        assert!(
            all_shared.create_s > none_shared.create_s * 2.0,
            "100% shared: {:.2}s, 0% shared: {:.2}s",
            all_shared.create_s,
            none_shared.create_s
        );
    }
}
