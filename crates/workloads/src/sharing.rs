//! The file-sharing latency experiment of Figure 9 (paper §4.3).
//!
//! Two clients, A and B, share a folder. A writes a file of a given size and
//! closes it; B continuously polls for the new version and downloads it as
//! soon as it becomes visible. The measured latency is the interval between
//! A's `close` returning and B holding a complete copy (the paper uses a UDP
//! acknowledgement from B for this). SCFS is compared in blocking and
//! non-blocking mode on both backends against a Dropbox-like
//! synchronization service.

use baselines::DropboxModel;
use cloud_store::types::Permission;
use scfs::config::{Mode, ScfsConfig};
use scfs::fs::FileSystem;
use sim_core::rng::DetRng;
use sim_core::stats::Summary;
use sim_core::time::SimDuration;
use sim_core::units::Bytes;

use crate::results::{fmt_secs, Table};
use crate::setup::{Backend, Deployment};

/// The systems compared in Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingSystem {
    /// SCFS with the cloud-of-clouds backend, blocking mode.
    CocBlocking,
    /// SCFS with the cloud-of-clouds backend, non-blocking mode.
    CocNonBlocking,
    /// SCFS with the AWS backend, blocking mode.
    AwsBlocking,
    /// SCFS with the AWS backend, non-blocking mode.
    AwsNonBlocking,
    /// The Dropbox-like synchronization service.
    Dropbox,
}

impl SharingSystem {
    /// All systems of Figure 9, in the order of the plot.
    pub fn all() -> Vec<SharingSystem> {
        vec![
            SharingSystem::CocBlocking,
            SharingSystem::CocNonBlocking,
            SharingSystem::AwsBlocking,
            SharingSystem::AwsNonBlocking,
            SharingSystem::Dropbox,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SharingSystem::CocBlocking => "CoC-B",
            SharingSystem::CocNonBlocking => "CoC-NB",
            SharingSystem::AwsBlocking => "AWS-B",
            SharingSystem::AwsNonBlocking => "AWS-NB",
            SharingSystem::Dropbox => "Dropbox",
        }
    }
}

/// 50th and 90th percentile of the sharing latency, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingLatency {
    /// Median latency.
    pub p50: f64,
    /// 90th percentile latency.
    pub p90: f64,
}

/// Measures the sharing latency distribution of one system for one file size.
pub fn measure_sharing(
    system: SharingSystem,
    size: Bytes,
    runs: usize,
    seed: u64,
) -> SharingLatency {
    let mut samples = Summary::new();
    match system {
        SharingSystem::Dropbox => {
            let mut model = DropboxModel::new(seed);
            for _ in 0..runs {
                samples.add(model.sample_sharing_latency(size).as_secs_f64());
            }
        }
        _ => {
            let (backend, mode) = match system {
                SharingSystem::CocBlocking => (Backend::CloudOfClouds, Mode::Blocking),
                SharingSystem::CocNonBlocking => (Backend::CloudOfClouds, Mode::NonBlocking),
                SharingSystem::AwsBlocking => (Backend::Aws, Mode::Blocking),
                SharingSystem::AwsNonBlocking => (Backend::Aws, Mode::NonBlocking),
                SharingSystem::Dropbox => unreachable!(),
            };
            let deployment = Deployment::paper(backend, seed);
            let mut writer = deployment.mount("alice", ScfsConfig::paper_default(mode), seed);
            let mut reader =
                deployment.mount("bob", ScfsConfig::paper_default(mode), seed ^ 0xBEEF);
            let mut rng = DetRng::new(seed ^ 0xF00D);
            let path = "/shared/exchange.bin";

            // Setup (not measured): create the file and grant bob access.
            writer
                .write_file(path, &rng.bytes(1024))
                .expect("create shared file");
            writer
                .setfacl(path, &"bob".into(), Permission::Write)
                .expect("share the file with bob");

            for run in 0..runs {
                // Runs are independent: make sure the previous background
                // upload (non-blocking mode) has drained and both clients'
                // clocks are aligned before the writer starts.
                let resume = writer
                    .now()
                    .max(reader.now())
                    .max(writer.background_drain_instant())
                    + SimDuration::from_secs(2);
                writer.sleep(resume.duration_since(writer.now()));
                reader.sleep(resume.duration_since(reader.now()));

                let payload = rng.bytes(size.get() as usize);
                let expected_version =
                    writer.stat(path).expect("stat before write").version_count + 1;
                writer.write_file(path, &payload).expect("shared write");
                let closed_at = writer.now();

                // Reader polls until it observes and downloads the new version.
                let poll = SimDuration::from_millis(20);
                let deadline = closed_at + SimDuration::from_secs(600);
                let mut received_at = None;
                while reader.now() < deadline {
                    reader.sleep(poll);
                    let md = reader.stat(path).expect("poll stat");
                    if md.version_count >= expected_version && md.size == payload.len() as u64 {
                        let data = reader.read_file(path).expect("download shared file");
                        assert_eq!(data.len(), payload.len());
                        received_at = Some(reader.now());
                        break;
                    }
                }
                let received_at = received_at
                    .unwrap_or_else(|| panic!("run {run}: reader never observed the new version"));
                samples.add(received_at.duration_since(closed_at).as_secs_f64());
            }
        }
    }
    SharingLatency {
        p50: samples.percentile(50.0),
        p90: samples.percentile(90.0),
    }
}

/// The file sizes of Figure 9.
pub fn figure9_sizes() -> Vec<Bytes> {
    vec![
        Bytes::kib(256),
        Bytes::mib(1),
        Bytes::mib(4),
        Bytes::mib(16),
    ]
}

/// Runs Figure 9 and returns the result table.
pub fn figure9(runs: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "Figure 9: sharing latency, 50th / 90th percentile (virtual seconds)",
        vec![
            "size".into(),
            "CoC-B".into(),
            "CoC-NB".into(),
            "AWS-B".into(),
            "AWS-NB".into(),
            "Dropbox".into(),
        ],
    );
    for size in figure9_sizes() {
        let mut row = vec![format!("{size}")];
        for system in SharingSystem::all() {
            let r = measure_sharing(system, size, runs, seed);
            row.push(format!("{} / {}", fmt_secs(r.p50), fmt_secs(r.p90)));
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_sharing_beats_non_blocking_and_dropbox() {
        let size = Bytes::kib(256);
        let blocking = measure_sharing(SharingSystem::AwsBlocking, size, 3, 11);
        let non_blocking = measure_sharing(SharingSystem::AwsNonBlocking, size, 3, 11);
        let dropbox = measure_sharing(SharingSystem::Dropbox, size, 20, 11);
        assert!(
            blocking.p50 < non_blocking.p50,
            "blocking ({}) should share faster than non-blocking ({})",
            blocking.p50,
            non_blocking.p50
        );
        assert!(
            non_blocking.p50 < dropbox.p50,
            "SCFS-NB ({}) should share faster than Dropbox ({})",
            non_blocking.p50,
            dropbox.p50
        );
    }

    #[test]
    fn latency_grows_with_file_size() {
        // Per-request latency dwarfs transfer time at these sizes, so the
        // trend only shows in a median of enough samples: two-sample medians
        // order the sizes by the luck of one draw.
        let small = measure_sharing(SharingSystem::CocNonBlocking, Bytes::kib(256), 9, 5);
        let large = measure_sharing(SharingSystem::CocNonBlocking, Bytes::mib(4), 9, 5);
        assert!(
            large.p50 > small.p50,
            "4 MiB shared in {} s, 256 KiB in {} s",
            large.p50,
            small.p50
        );
        assert!(small.p90 >= small.p50);
    }
}
