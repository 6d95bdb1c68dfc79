//! The whole benchmark in one command: every workload, untraced then
//! traced, each in a fresh child process so that peak memory is per
//! workload, followed by the summary tables and the result file that
//! `--compare` reads.

use crate::env;
use crate::json::{obj, parse_json, text, to_string, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::Options;
use crate::workloads::WORKLOADS;
use std::error::Error;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs one child invocation, echoes its output and returns its `detail`
/// line and whether it reported correct outputs.
fn child(workload: &str, trace: bool, opts: &Options) -> Result<(Json, bool), Box<dyn Error>> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--reps", &opts.min_reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    let output = command.output()?;
    let stdout = String::from_utf8(output.stdout)?;
    print!("{stdout}");
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{workload}: the child printed no detail line"))?;
    Ok((parse_json(detail)?, output.status.success()))
}

fn field(detail: &Json, section: &str, metric: &str, key: &str) -> f64 {
    detail
        .get(section)
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Runs every workload and writes the result file; returns whether every
/// child reported correct outputs.
pub fn run(opts: &Options, out: &Path) -> Result<bool, Box<dyn Error>> {
    let mut correct = true;
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let (untraced, ok_untraced) = child(workload.name, false, opts)?;
        let (traced, ok_traced) = child(workload.name, true, opts)?;
        correct &= ok_untraced && ok_traced;
        results.push((workload, untraced, traced));
    }

    println!("\nend-to-end (median of the timed runs, tracing off)");
    print!("  {:<16}", "metric");
    for (w, ..) in &results {
        print!(" {:>16}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("  {:<16}", format!("{} [{}]", m.def.name, m.def.unit));
        for (_, untraced, _) in &results {
            print!(
                " {:>16.4}",
                field(untraced, "end_to_end", m.def.name, "median")
            );
        }
        println!();
    }
    println!("\nper layer (traced run and probes)");
    print!("  {:<36}", "metric");
    for (w, ..) in &results {
        print!(" {:>16}", w.name);
    }
    println!();
    for def in &PER_LAYER {
        print!("  {:<36}", format!("{} [{}]", def.name, def.unit));
        for (_, _, traced) in &results {
            print!(" {:>16.4}", field(traced, "per_layer", def.name, "value"));
        }
        println!();
    }

    let doc = obj([
        ("quick", Json::Bool(opts.quick)),
        ("env", env::block(opts.seed, opts.min_reps, opts.seconds)),
        (
            "workloads",
            Json::Object(
                results
                    .into_iter()
                    .map(|(w, untraced, traced)| {
                        let entry = obj([
                            ("why", text(w.why)),
                            ("untraced", untraced),
                            ("traced", traced),
                        ]);
                        (w.name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, to_string(&doc) + "\n")?;
    println!(
        "\nresults written to {} ({})",
        out.display(),
        if correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS INCORRECT"
        }
    );
    Ok(correct)
}
