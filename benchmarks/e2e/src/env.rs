//! The environment block of every report: what a number was measured on.

use crate::json::{num, obj, text, Json};
use std::process::Command;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or `unknown` outside a git repository (the
/// benchmark also runs from exported trees).
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn block(seed: u64, min_reps: usize, seconds: f64) -> Json {
    obj([
        ("nproc", num(fedft_tensor::pool::hardware_threads() as f64)),
        ("cpu", text(cpu_model())),
        ("rustc", text(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", text(env!("BENCH_RUSTFLAGS"))),
        ("git_commit", text(git_commit())),
        ("seed", num(seed as f64)),
        ("min_reps", num(min_reps as f64)),
        ("seconds", num(seconds)),
    ])
}
