//! The host clock: what the code itself costs on this machine.
//!
//! Phases are timed in **on-CPU** nanoseconds of the driver thread, read from
//! `/proc/thread-self/schedstat` (first field: time spent running). Unlike
//! wall time it does not count the moments another process held the core, so
//! it is steadier on a shared two-core box. The kernel updates it at
//! scheduler ticks, so its resolution is a few milliseconds: it times phases
//! of seconds. Spans inside a phase are timed with `Instant` (wall), which is
//! cheap enough to bracket a 2 µs call.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Instant;

/// Reads on-CPU time of the calling thread; falls back to wall time since
/// construction where `/proc` has no schedstat.
pub struct HostClock {
    schedstat: Option<File>,
    origin: Instant,
}

impl HostClock {
    /// Opens the calling thread's schedstat once; later reads are one `pread`.
    pub fn new() -> Self {
        HostClock {
            schedstat: File::open("/proc/thread-self/schedstat").ok(),
            origin: Instant::now(),
        }
    }

    /// Whether on-CPU time is available (otherwise `on_cpu_ns` is wall time).
    pub fn has_on_cpu(&self) -> bool {
        self.schedstat.is_some()
    }

    /// On-CPU nanoseconds of this thread so far.
    pub fn on_cpu_ns(&self) -> u64 {
        if let Some(file) = &self.schedstat {
            let mut buf = [0u8; 96];
            if let Ok(n) = file.read_at(&mut buf, 0) {
                let text = std::str::from_utf8(&buf[..n]).unwrap_or("");
                if let Some(v) = text
                    .split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
                {
                    return v;
                }
            }
        }
        self.wall_ns()
    }

    /// Wall nanoseconds since this clock was created.
    pub fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::new()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed arithmetic loop (an LCG chain the compiler cannot shorten), run
/// before and after a pass: if its rate moved, the machine drifted, not the
/// code. Returns millions of steps per wall second.
pub fn calibration_mops_per_s() -> f64 {
    const STEPS: u64 = 30_000_000;
    let start = Instant::now();
    let mut x = std::hint::black_box(0x2014_0614u64);
    for _ in 0..STEPS {
        // The multiply feeds the next one: a serial chain of ~4-cycle steps.
        x = std::hint::black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// A memory-bound companion to [`calibration_mops_per_s`]: a dependent walk
/// over a 32 MiB table (larger than the last-level cache), in millions of
/// loads per wall second. It slows when a neighbour on the host thrashes the
/// shared cache or memory bus, which the arithmetic loop cannot see.
pub fn calibration_mloads_per_s() -> f64 {
    const SLOTS: usize = 4 << 20;
    const LOADS: usize = 2_000_000;
    thread_local! {
        static TABLE: Vec<u32> = {
            // A single cycle through all slots (Sattolo's algorithm), so the
            // walk never falls into a short loop that fits the cache.
            let mut next: Vec<u32> = (0..SLOTS as u32).collect();
            let mut rng = crate::rng::Rng::new(0x5eed);
            for i in (1..SLOTS).rev() {
                let j = rng.below(i as u64) as usize;
                next.swap(i, j);
            }
            next
        };
    }
    TABLE.with(|table| {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..LOADS {
            at = table[at as usize];
        }
        std::hint::black_box(at);
        LOADS as f64 / start.elapsed().as_secs_f64() / 1e6
    })
}

/// Machine facts printed with every result that depends on the host.
pub fn machine_facts() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("nproc={nproc} available_parallelism={parallelism} cpu=\"{model}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_cpu_time_advances_with_work_and_rss_is_positive() {
        let clock = HostClock::new();
        let a = clock.on_cpu_ns();
        let rate = calibration_mops_per_s();
        // Spin past a few scheduler ticks so schedstat has been refreshed.
        let spin = Instant::now();
        let mut x = 1u64;
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        let b = clock.on_cpu_ns();
        assert!(b > a, "on-CPU time must advance: {a} -> {b}");
        assert!(rate > 1.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(machine_facts().contains("nproc="));
    }
}
