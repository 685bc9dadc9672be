//! Regenerates every table and figure of the SCFS paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! reproduce                # everything
//! reproduce table3 fig9    # only the listed experiments
//! reproduce --quick        # reduced workload sizes (for smoke testing)
//! ```
//!
//! An argument that is neither exits 2 and lists the selectors.
//!
//! The output is a set of plain-text tables. `tests/experiment_shapes.rs`
//! maps every selector to the test that states its shape against the paper.

use std::collections::BTreeSet;

use sim_core::units::Bytes;
use workloads::costs::{figure11a, figure11b, figure11c, table1};
use workloads::filebench::{table3, MicroBenchConfig};
use workloads::filesync::{figure8, figure8a_systems, figure8b_systems};
use workloads::sharing::figure9;
use workloads::sweeps::{figure10a, figure10b, SweepConfig};

const SEED: u64 = 20140614;

/// Workload sizes of one invocation (`--quick` shrinks them).
struct Sizes {
    micro: MicroBenchConfig,
    sweep: SweepConfig,
    sharing_runs: usize,
}

/// Every section, in print order: its selector, the group selectors that
/// also pick it, and what prints it.
type Section = (&'static str, &'static [&'static str], fn(&Sizes));
const SECTIONS: &[Section] = &[
    ("table1", &[], |_| println!("{}", table1().render())),
    ("table3", &[], |sizes| {
        eprintln!("[running] Table 3: Filebench micro-benchmarks ...");
        println!("{}", table3(&sizes.micro, SEED).render());
    }),
    ("fig8", &[], |_| {
        eprintln!("[running] Figure 8: file synchronization benchmark ...");
        let doc_size = Bytes::new(1_200 * 1024);
        println!("{}", figure8(&figure8a_systems(), doc_size, SEED).render());
        println!("{}", figure8(&figure8b_systems(), doc_size, SEED).render());
    }),
    ("fig9", &[], |sizes| {
        eprintln!("[running] Figure 9: sharing latency ...");
        println!("{}", figure9(sizes.sharing_runs, SEED).render());
    }),
    ("fig10a", &["fig10"], |sizes| {
        eprintln!("[running] Figure 10(a): metadata cache sweep ...");
        println!("{}", figure10a(sizes.sweep, SEED).render());
    }),
    ("fig10b", &["fig10"], |sizes| {
        eprintln!("[running] Figure 10(b): private name space sweep ...");
        println!("{}", figure10b(sizes.sweep, SEED).render());
    }),
    ("fig11a", &["fig11"], |_| {
        println!("{}", figure11a().render())
    }),
    ("fig11b", &["fig11"], |_| {
        eprintln!("[running] Figure 11(b): cost per operation ...");
        println!("{}", figure11b(SEED).render())
    }),
    ("fig11c", &["fig11"], |_| {
        eprintln!("[running] Figure 11(c): storage cost ...");
        println!("{}", figure11c(SEED).render())
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let picks = |(name, groups, _): &Section, arg: &str| arg == *name || groups.contains(&arg);
    let known = |arg: &str| arg == "--quick" || SECTIONS.iter().any(|s| picks(s, arg));
    if let Some(unknown) = args.iter().find(|arg| !known(arg)) {
        let valid: BTreeSet<&str> = SECTIONS
            .iter()
            .flat_map(|(name, groups, _)| groups.iter().chain([name]).copied())
            .collect();
        let valid: Vec<&str> = valid.into_iter().collect();
        eprintln!("reproduce: unknown argument {unknown:?}");
        eprintln!("usage: reproduce [--quick] [{}]...", valid.join("|"));
        std::process::exit(2);
    }
    let (flags, selected): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|arg| *arg == "--quick");

    let sizes = if !flags.is_empty() {
        Sizes {
            micro: MicroBenchConfig::quick(),
            sweep: SweepConfig::quick(),
            sharing_runs: 3,
        }
    } else {
        Sizes {
            micro: MicroBenchConfig::paper(),
            sweep: SweepConfig::paper(),
            sharing_runs: 15,
        }
    };

    println!("SCFS reproduction — regenerating the paper's tables and figures");
    println!("(virtual-time simulation; see tests/experiment_shapes.rs for the comparison)\n");

    for section in SECTIONS {
        if selected.is_empty() || selected.iter().any(|s| picks(section, s)) {
            (section.2)(&sizes);
        }
    }
}
