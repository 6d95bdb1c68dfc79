//! End-to-end round benchmark of the FedFT-EDS simulator.
//!
//! ```text
//! fedft-e2e-bench                          every workload, untraced then traced
//! fedft-e2e-bench --workload NAME --trace 0|1   one workload in this process
//! fedft-e2e-bench --compare A.json B.json  is B no worse than A?
//! ```
//!
//! See `benchmarks/README.md` for the metrics, the workloads and how to
//! read a trace.

mod compare;
mod env;
mod json;
mod layers;
mod metrics;
mod mirror;
mod probes;
mod reference;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds one invocation measures for when `--seconds` is not given, which
/// keeps the whole suite under four minutes on two cores. The reviewer's
/// driver passes `run_seconds` from `BENCHMARK.json`, a longer window.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 11;
const DEFAULT_MIN_REPS: usize = 3;

const USAGE: &str = "usage: fedft-e2e-bench [--workload NAME] [--trace 0|1] [--seed N] \
[--seconds S] [--reps N] [--quick] [--out PATH]\n       fedft-e2e-bench --compare A.json B.json";

enum Mode {
    Suite { out: PathBuf },
    Workload { name: String, trace: bool },
    Compare { a: PathBuf, b: PathBuf },
}

fn parse_args(args: &[String]) -> Result<(Mode, run::Options), String> {
    let mut options = run::Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        min_reps: DEFAULT_MIN_REPS,
        quick: false,
    };
    let (mut workload, mut trace, mut compare) = (None, false, None);
    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/results.json");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: cannot read `{value}`"))
        }
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--seed" => options.seed = parsed(flag, value()?)?,
            "--seconds" => {
                options.seconds = parsed(flag, value()?)?;
                if !(options.seconds >= 0.0 && options.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--reps" => {
                options.min_reps = parsed(flag, value()?)?;
                if options.min_reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--quick" => options.quick = true,
            "--out" => out = PathBuf::from(value()?),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.quick {
        // One rep and no measuring window: a smoke run, never a measurement.
        options.min_reps = 1;
        options.seconds = 0.0;
    }
    let mode = match (compare, workload) {
        (Some((a, b)), None) => Mode::Compare { a, b },
        (Some(_), Some(_)) => return Err("--compare takes no --workload".into()),
        (None, Some(name)) => Mode::Workload { name, trace },
        (None, None) => Mode::Suite { out },
    };
    Ok((mode, options))
}

fn dispatch(mode: Mode, options: &run::Options) -> Result<bool, Box<dyn Error>> {
    match mode {
        Mode::Suite { out } => suite::run(options, &out),
        Mode::Compare { a, b } => compare::run(Path::new(&a), Path::new(&b)),
        Mode::Workload { name, trace } => {
            let workload = workloads::find(&name).ok_or_else(|| {
                let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload `{name}`; the workloads are {}",
                    known.join(", ")
                )
            })?;
            if trace {
                run::per_layer(workload, options)
            } else {
                run::end_to_end(workload, options)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(mode, &options) {
        Ok(true) => ExitCode::SUCCESS,
        // The report was printed; its outputs were wrong or out of bounds.
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let (mode, o) = parse_args(&args(
            "--workload eval_heavy --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(matches!(mode, Mode::Workload { name, trace: true } if name == "eval_heavy"));
        assert_eq!(
            (o.seed, o.seconds, o.min_reps, o.quick),
            (7, 10.0, 3, false)
        );
    }

    #[test]
    fn quick_means_one_rep_and_no_window() {
        let (mode, o) = parse_args(&args("--quick --reps 9 --seconds 30")).unwrap();
        assert!(matches!(mode, Mode::Suite { .. }));
        assert_eq!((o.min_reps, o.seconds, o.quick), (1, 0.0, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--trace 2",
            "--seed x",
            "--reps 0",
            "--seconds -1",
            "--workload",
            "--compare a.json",
            "--compare a.json b.json --workload eval_heavy",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(line)).is_err(), "{line}");
        }
    }

    /// `BENCHMARK.json` is what the reviewer's driver reads; it must name
    /// exactly the workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let direction = |higher: bool| if higher { "higher" } else { "lower" };
        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = metrics::END_TO_END
            .iter()
            .map(|m| {
                let d = m.def;
                (
                    d.name.into(),
                    d.unit.into(),
                    direction(d.higher_is_better).into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = metrics::PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.into(),
                    d.unit.into(),
                    direction(d.higher_is_better).into(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
    }
}
