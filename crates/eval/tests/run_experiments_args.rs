//! `run_experiments` accepts no argument (quick scale) or `--full`;
//! anything else is a usage error (exit 2) that prints no table, so a
//! typo cannot pass for a full run.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_run_experiments");

#[test]
fn unknown_arguments_exit_with_usage() {
    for args in [
        &["--ful"][..],
        &["full"],
        &["--full", "--full"],
        &["--full", "-v"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: run_experiments [--full]"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn full_flag_is_accepted() {
    // Parsing only: read the first section header, then stop the sweep.
    let mut child = Command::new(BIN)
        .arg("--full")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read stdout");
    child.kill().expect("kill");
    child.wait().expect("wait");
    assert!(first.starts_with("=== E1: Table 1"), "first line {first:?}");
}
