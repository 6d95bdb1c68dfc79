//! The experiment binaries' exit codes: 0 when every CSV is written, 1 when
//! the experiment or a CSV fails, 2 when the profile name is not one.
//!
//! `fig1_entropy` stands in for all eight: they share one `main` shape (the
//! profile from `ExperimentProfile::from_args`, every failure
//! returned with `?`), and it is the fastest at the tiny profile.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};

/// A fresh, empty working directory for one case.
fn fresh_dir(case: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fedft-entry-points-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fig1_entropy(cwd: &Path, profile: &str) -> ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_fig1_entropy"))
        .args(["--profile", profile])
        .current_dir(cwd)
        .output()
        .unwrap()
        .status
}

#[test]
fn a_tiny_run_exits_0_and_writes_its_csv() {
    let dir = fresh_dir("ok");
    assert_eq!(fig1_entropy(&dir, "tiny").code(), Some(0));
    let csv = std::fs::read_to_string(dir.join("results/fig1_entropy.csv")).unwrap();
    assert!(csv.lines().count() > 1, "header and rows expected: {csv}");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_csv_that_cannot_be_written_exits_1() {
    let dir = fresh_dir("blocked");
    // A file where the results directory should be.
    std::fs::write(dir.join("results"), "").unwrap();
    assert_eq!(fig1_entropy(&dir, "tiny").code(), Some(1));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_unknown_profile_exits_2() {
    let dir = fresh_dir("typo");
    assert_eq!(fig1_entropy(&dir, "papr").code(), Some(2));
    assert!(!dir.join("results").exists());
    std::fs::remove_dir_all(dir).unwrap();
}
