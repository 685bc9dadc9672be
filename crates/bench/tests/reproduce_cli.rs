//! The `reproduce` binary's command line: a known selector prints its
//! section and exits 0; an unknown selector or flag prints nothing on
//! standard output and exits 2, naming the valid selectors.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn a_known_selector_prints_its_section() {
    let out = reproduce(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== Table 1: SCFS durability levels =="));
    assert!(stdout.contains("cloud-of-clouds"));
    assert!(!stdout.contains("Figure 11"), "only what was selected");
}

#[test]
fn an_unknown_selector_or_flag_exits_2_listing_the_valid_ones() {
    for args in [&["nope"][..], &["--bogus"], &["table1", "nope"]] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a section");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(args[args.len() - 1]), "{stderr}");
        assert!(
            stderr.contains("table3") && stderr.contains("fig10"),
            "{stderr}"
        );
    }
}
