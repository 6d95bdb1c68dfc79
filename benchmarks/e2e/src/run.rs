//! One workload in this process: either the untraced timed runs that give
//! the end-to-end metrics, or the traced runs that give the per-layer ones.
//!
//! Both print every metric by name and unit, then a `detail` line (what the
//! suite and `--compare` read) and, last, the result line with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use crate::json::{num, obj, text, to_string, Json};
use crate::metrics::{Measured, MetricDef, END_TO_END, PER_LAYER};
use crate::mirror::{traced_run, MirrorRound};
use crate::reference::Bracketed;
use crate::stats::{history_checksum, median, Summary};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Workload};
use crate::{env, layers, probes};
use fedft_core::{ExecutionBackend, ParticipationModel, RunResult, Simulation};
use std::error::Error;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is repeated at least this often per untraced invocation, and
/// until `SETUP_WINDOW_S` seconds of it have passed (the cheapest set-up
/// takes 80 ms, and the median of five of those is not steady); `setup_s` is
/// the median.
const MIN_SETUP_REPS: usize = 5;
const SETUP_WINDOW_S: f64 = 2.0;

pub struct Options {
    pub seed: u64,
    /// The timed runs go on until this many seconds have passed…
    pub seconds: f64,
    /// …and until at least this many are done.
    pub min_reps: usize,
    /// Smoke mode: a fifth of the rounds, one set-up, one timed run.
    pub quick: bool,
}

/// Where the traced run of `workload` writes its spans.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Sampled client-round slots of one run: the benchmark's unit of work.
fn slots_per_run(inputs: &Inputs) -> Result<usize, Box<dyn Error>> {
    let config = &inputs.config;
    let clients = config.logical_clients.unwrap_or(inputs.data.num_clients());
    let per_round = ParticipationModel::new(config.participation)?.participants_per_round(clients);
    Ok(per_round * config.rounds)
}

fn print_header(workload: &Workload, mode: &str, opts: &Options, inputs: &Inputs) {
    println!(
        "workload {} ({mode}) seed {} rounds {}{}",
        workload.name,
        opts.seed,
        inputs.config.rounds,
        if opts.quick { " QUICK" } else { "" }
    );
    println!(
        "env {}",
        to_string(&env::block(opts.seed, opts.min_reps, opts.seconds))
    );
}

fn print_metric(def: &MetricDef, value: f64, n: usize, spread: Option<f64>) {
    let spread = spread.map_or(String::new(), |s| format!("  iqr/median {:.1}%", 100.0 * s));
    println!(
        "  {:<36} {:>16.6} {:<8} n={n}{spread}",
        def.name, value, def.unit
    );
}

fn metrics_json<'a>(values: impl Iterator<Item = (&'a MetricDef, f64)>) -> Json {
    Json::Object(
        values
            .map(|(def, value)| {
                let entry = obj([("value", num(value)), ("unit", text(def.unit))]);
                (def.name.to_string(), entry)
            })
            .collect(),
    )
}

fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().copied().map(num).collect())
}

/// Prints the `detail` line and the result line; returns `correct`.
fn finish(detail: Json, correct: bool, attempted: usize, failed: usize, metrics: Json) -> bool {
    println!("detail {}", to_string(&detail));
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", to_string(&result));
    correct
}

/// The `detail` object: the invocation's identity, then `rest`.
fn detail(
    workload: &Workload,
    opts: &Options,
    trace: bool,
    rounds: usize,
    rest: Vec<(&str, Json)>,
) -> Json {
    let head = [
        ("workload", text(workload.name)),
        ("seed", num(opts.seed as f64)),
        ("quick", Json::Bool(opts.quick)),
        ("trace", Json::Bool(trace)),
        ("rounds", num(rounds as f64)),
    ];
    let fields = head.into_iter().chain(rest);
    Json::Object(fields.map(|(k, v)| (k.to_string(), v)).collect())
}

/// The untraced invocation: repeated set-up, one discarded warm-up run,
/// then timed `Simulation::run`s in a closed loop, one at a time.
pub fn end_to_end(workload: &Workload, opts: &Options) -> Result<bool, Box<dyn Error>> {
    let (min_setup_reps, setup_window_s) = if opts.quick {
        (1, 0.0)
    } else {
        (MIN_SETUP_REPS, SETUP_WINDOW_S)
    };
    let mut setups = Bracketed::new();
    let inputs = loop {
        let made = setups.time(|| workload.setup(opts.seed, opts.quick))?;
        if setups.raw_s.len() >= min_setup_reps
            && setups.raw_s.iter().sum::<f64>() >= setup_window_s
        {
            break made;
        }
    };
    print_header(workload, "untraced", opts, &inputs);

    let simulation = Simulation::new(inputs.config.clone())?;
    let rounds = inputs.config.rounds;
    let slots = slots_per_run(&inputs)?;
    let reference = simulation.run(&inputs.data, &inputs.model)?;
    let checksum = history_checksum(&reference.learning_history());

    let mut runs = Bracketed::new();
    let mut failed_runs = 0usize;
    let started = Instant::now();
    while runs.raw_s.len() < opts.min_reps || started.elapsed().as_secs_f64() < opts.seconds {
        let result = runs.time(|| simulation.run(&inputs.data, &inputs.model));
        let repeats = result
            .as_ref()
            .is_ok_and(|r| history_checksum(&r.learning_history()) == checksum);
        if !repeats {
            failed_runs += 1;
        }
    }
    let updates = reference.total_aggregated_updates() as f64;
    let round_ms =
        |run_s: &[f64]| -> Vec<f64> { run_s.iter().map(|s| s * 1e3 / rounds as f64).collect() };
    let peak_rss_mb = env::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let run_s = runs.nominal_s();
    let samples = |name: &str| -> Vec<f64> {
        match name {
            "setup_s" => setups.nominal_s(),
            "round_ms" => round_ms(&run_s),
            "updates_per_s" => run_s.iter().map(|s| updates / s).collect(),
            "peak_rss_mb" => vec![peak_rss_mb],
            "final_accuracy" => vec![f64::from(reference.final_accuracy())],
            other => unreachable!("no samples for end-to-end metric {other}"),
        }
    };
    let summaries: Vec<(&MetricDef, Summary)> = END_TO_END
        .iter()
        .map(|m| {
            let summary = Summary::of(&samples(m.def.name)).expect("every metric was sampled");
            (&m.def, summary)
        })
        .collect();
    for (def, s) in &summaries {
        print_metric(def, s.median, s.n, (s.n > 1).then(|| s.spread()));
    }
    let reps = runs.raw_s.len();
    println!(
        "  attempted {} failed {} dropped {} history_checksum {checksum:016x}",
        slots * reps,
        slots * failed_runs,
        reference.total_dropped_clients(),
    );

    let end_to_end = Json::Object(
        summaries
            .iter()
            .map(|(def, s)| {
                let entry = obj([
                    ("unit", text(def.unit)),
                    ("median", num(s.median)),
                    ("q1", num(s.q1)),
                    ("q3", num(s.q3)),
                    ("min", num(s.min)),
                    ("max", num(s.max)),
                    ("n", num(s.n as f64)),
                ]);
                (def.name.to_string(), entry)
            })
            .collect(),
    );
    let detail = detail(
        workload,
        opts,
        false,
        rounds,
        vec![
            ("reps", num(reps as f64)),
            ("attempted", num((slots * reps) as f64)),
            ("failed", num((slots * failed_runs) as f64)),
            ("dropped", num(reference.total_dropped_clients() as f64)),
            ("history_checksum", text(format!("{checksum:016x}"))),
            ("end_to_end", end_to_end),
            (
                "as_measured",
                obj([
                    ("setup_s", num(median(&setups.raw_s))),
                    ("round_ms", num(median(&round_ms(&runs.raw_s)))),
                    ("host_slowdown", num(median(&runs.slowdown))),
                    ("run_s", numbers(&runs.raw_s)),
                    ("run_slowdown", numbers(&runs.slowdown)),
                ]),
            ),
        ],
    );
    Ok(finish(
        detail,
        failed_runs == 0,
        slots * reps,
        slots * failed_runs,
        metrics_json(summaries.iter().map(|(def, s)| (*def, s.median))),
    ))
}

fn mirrors_reference(mirror: &[MirrorRound], reference: &RunResult) -> bool {
    mirror.len() == reference.rounds.len()
        && mirror.iter().zip(&reference.rounds).all(|(m, r)| {
            m.test_accuracy.to_bits() == r.test_accuracy.to_bits()
                && m.test_loss.to_bits() == r.test_loss.to_bits()
                && m.participants == r.participants
                && m.dropped == r.dropped_clients
        })
}

/// The traced invocation: one set-up and warm-up, then pairs of an untraced
/// run and a traced mirror run until the time is up, then the probes.
pub fn per_layer(workload: &Workload, opts: &Options) -> Result<bool, Box<dyn Error>> {
    let inputs = workload.setup(opts.seed, opts.quick)?;
    print_header(workload, "traced", opts, &inputs);
    let config = &inputs.config;
    let simulation = Simulation::new(config.clone())?;
    let slots = slots_per_run(&inputs)?;
    let reference = simulation.run(&inputs.data, &inputs.model)?;
    let checksum = history_checksum(&reference.learning_history());

    let mut tracer = Tracer::new();
    let mut untraced_s = Vec::new();
    let (mut reps, mut failed_reps) = (0u32, 0usize);
    let started = Instant::now();
    let mirror = loop {
        let (result, wall_s) = timed(|| simulation.run(&inputs.data, &inputs.model));
        let repeats = history_checksum(&result?.learning_history()) == checksum;
        untraced_s.push(wall_s);
        tracer.set_rep(reps);
        let mirror = traced_run(&inputs, &mut tracer)?;
        if !repeats
            || mirror.replay_mismatches > 0
            || !mirrors_reference(&mirror.rounds, &reference)
        {
            failed_reps += 1;
        }
        reps += 1;
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break mirror;
        }
    };
    let sample_update = mirror
        .sample_update
        .as_ref()
        .ok_or("no round of the traced run produced an update")?;
    let probes = probes::run(&inputs, sample_update)?;

    // The parallel backend must replay the sequential one bit for bit.
    let matches_sequential = if config.execution == ExecutionBackend::Parallel {
        let serial = Simulation::new(config.clone().serial())?.run(&inputs.data, &inputs.model)?;
        Some(serial.learning_history() == reference.learning_history())
    } else {
        None
    };

    let measured = layers::derive(&layers::Context {
        tracer: &tracer,
        mirror: &mirror,
        probes: &probes,
        untraced_s: &untraced_s,
        max_workers: match config.execution {
            ExecutionBackend::Sequential => 1,
            _ => config
                .worker_threads
                .unwrap_or_else(fedft_tensor::pool::hardware_threads),
        },
        cache_on: config.feature_cache && config.freeze.frozen_blocks() > 0,
    });
    let values: Vec<(&MetricDef, Measured)> = PER_LAYER
        .iter()
        .map(|def| {
            let m = measured
                .iter()
                .find(|m| m.name == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", def.name));
            (def, *m)
        })
        .collect();
    for (def, m) in &values {
        print_metric(def, m.value, m.n, None);
    }
    let path = trace_path(workload.name);
    tracer.write_jsonl(&path)?;
    let correct = failed_reps == 0 && probes.codec_round_trips && matches_sequential != Some(false);
    println!(
        "  traced runs {reps} (mirror, replay or checksum mismatches: {failed_reps}), \
         codec round trip {}, identical to Sequential {}, {} spans in {}",
        probes.codec_round_trips,
        matches_sequential.map_or("not applicable".into(), |same| same.to_string()),
        tracer.spans().len(),
        path.display()
    );

    let attempted = slots * reps as usize;
    let failed = slots * failed_reps;
    let per_layer = Json::Object(
        values
            .iter()
            .map(|(def, m)| {
                let entry = obj([
                    ("unit", text(def.unit)),
                    ("value", num(m.value)),
                    ("n", num(m.n as f64)),
                ]);
                (def.name.to_string(), entry)
            })
            .collect(),
    );
    let detail = detail(
        workload,
        opts,
        true,
        config.rounds,
        vec![
            ("reps", num(f64::from(reps))),
            ("attempted", num(attempted as f64)),
            ("failed", num(failed as f64)),
            ("per_layer", per_layer),
        ],
    );
    Ok(finish(
        detail,
        correct,
        attempted,
        failed,
        metrics_json(values.iter().map(|(def, m)| (*def, m.value))),
    ))
}
