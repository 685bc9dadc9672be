//! The four workloads.
//!
//! Each is a function that builds a fresh deployment from a seed, populates
//! it, runs one seeded closed-loop operation sequence through the
//! [`crate::driver::Engine`] and returns what it measured. They share the
//! driver and nothing else: every constant (sizes, mixes, think times, cache
//! capacities, GC thresholds) is local to its workload, with the reason next
//! to it, so a change to one cannot move another.
//!
//! The contract this file's table is held to (`BENCHMARK.json`): every
//! workload issues at least one operation of every latency class, so every
//! end-to-end metric is defined — and non-zero — on every workload. A class
//! a workload is *not about* rides along as a thin minority of cheap calls;
//! `README.md` lists which rows are thin.

use crate::driver::CycleResult;
use crate::hostclock::HostClock;

pub mod bigfile_edit;
pub mod bigfile_read;
pub mod metadata_storm;
pub mod smallfile_fleet;

/// One workload: its name, why it exists, and how to run one cycle of it.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
    /// Runs one cycle: `(seed, traced, divisor, host clock)`. `divisor`
    /// shrinks the frozen operation counts (1 = full, 20 = `--smoke`).
    pub run_cycle: fn(u64, bool, usize, &HostClock) -> CycleResult,
}

/// The workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bigfile_edit",
        why: "small edits of 4 MiB CDC files on the cloud-of-clouds: the write path (chunking, hashing, DepSky, GC) does the work",
        run_cycle: bigfile_edit::run_cycle,
    },
    Workload {
        name: "bigfile_read",
        why: "range and sequential reads of a 40 MiB set over a 20 MiB disk cache on the cloud-of-clouds: decode, verify, prefetch and cache policy do the work",
        run_cycle: bigfile_read::run_cycle,
    },
    Workload {
        name: "smallfile_fleet",
        why: "600 mounts in 60 teams on small zipfian files over one S3 cloud: per-request latency, locks and cache policy dominate, bytes do not",
        run_cycle: smallfile_fleet::run_cycle,
    },
    Workload {
        name: "metadata_storm",
        why: "256 mounts of stat/open/readdir/mkdir/rename on the sharded ABD plane at ~70 % of saturation: almost no data path",
        run_cycle: metadata_storm::run_cycle,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The metadata-write stream of the two big-file workloads: snapshot
/// directories `/big/dNNNNNN` that are later renamed to `/big/rNNNNNN`.
/// Names are fixed-width, so no name is a prefix of another (a rename moves
/// a whole key prefix in the coordination service).
#[derive(Default)]
struct SnapshotDirs {
    /// Directories made and not yet renamed.
    made: Vec<String>,
    next: usize,
}

impl SnapshotDirs {
    /// A rename of the newest unrenamed directory if `rename` is set and
    /// there is one, a mkdir of a fresh directory otherwise.
    fn next_op(&mut self, rename: bool) -> crate::driver::Op {
        use crate::driver::Op;
        match self.made.pop().filter(|_| rename) {
            Some(from) => Op::Rename {
                to: from.replace("/d", "/r"),
                from,
            },
            None => {
                let path = format!("/big/d{:06}", self.next);
                self.next += 1;
                self.made.push(path.clone());
                Op::Mkdir { path }
            }
        }
    }
}

/// Scales a frozen operation count down by `divisor`, never below `floor`.
fn scaled(count: usize, divisor: usize, floor: usize) -> usize {
    (count / divisor.max(1)).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    /// Every workload, at smoke scale: outputs check out, nothing fails, the
    /// same seed reproduces the same op trace, and decorating every seam
    /// changes neither the trace nor the virtual timeline — while the
    /// recorder's per-layer virtual self times add up to the syscall latency.
    #[test]
    fn smoke_cycles_are_correct_deterministic_and_unmoved_by_tracing() {
        let host = HostClock::new();
        for w in &WORKLOADS {
            let bare = (w.run_cycle)(7, false, 20, &host);
            assert!(bare.problems.is_empty(), "{}: {:?}", w.name, bare.problems);
            assert_eq!(bare.failed, 0, "{}", w.name);
            assert!(bare.timed_ops > 0 && bare.attempted == bare.timed_ops);
            for (class, n) in [
                ("close", bare.close.len()),
                ("read", bare.read.len()),
                ("stat", bare.stat.len()),
                ("mdwrite", bare.mdwrite.len()),
            ] {
                assert!(
                    n > 0,
                    "{}: no {class} samples, the row would be zero",
                    w.name
                );
            }
            assert!(bare.cloud.put_bytes > 0 && bare.cloud.microdollars > 0.0);
            assert!(bare.stored_bytes > 0 && bare.live_bytes > 0);
            assert_eq!(bare.orphans, 0);

            trace::install(7);
            let traced = (w.run_cycle)(7, true, 20, &host);
            let rec = trace::take().expect("installed");
            assert!(
                traced.problems.is_empty(),
                "{}: {:?}",
                w.name,
                traced.problems
            );
            assert_eq!(
                traced.hash, bare.hash,
                "{}: tracing moved the op trace",
                w.name
            );
            assert_eq!(traced.makespan_ns, bare.makespan_ns);
            assert_eq!(traced.cloud, bare.cloud);
            let virt: u64 = rec.layers.iter().map(|l| l.virt_self_ns).sum();
            assert_eq!(virt, rec.root_virt_ns, "{}", w.name);
            let host_self: u64 = rec.layers.iter().map(|l| l.host_self_ns).sum();
            assert_eq!(host_self, rec.root_host_ns, "{}", w.name);
            assert_eq!(
                rec.layers[trace::Layer::Agent as usize].calls,
                traced.syscalls,
                "{}: one root span per FileSystem call",
                w.name
            );

            let other_seed = (w.run_cycle)(8, false, 20, &host);
            assert_ne!(
                other_seed.hash, bare.hash,
                "{}: the seed must matter",
                w.name
            );
        }
    }

    #[test]
    fn workloads_are_found_by_name() {
        assert_eq!(
            by_name("metadata_storm").map(|w| w.name),
            Some("metadata_storm")
        );
        assert!(by_name("nope").is_none());
        assert_eq!(scaled(480, 20, 48), 48);
        assert_eq!(scaled(1000, 20, 10), 50);
    }
}
