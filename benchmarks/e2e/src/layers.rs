//! Per-layer metrics, derived from the traced runs' spans and the probes.

use crate::metrics::Measured;
use crate::mirror::MirrorRun;
use crate::probes::Probes;
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;

/// What the derivation needs besides the spans.
pub struct Context<'a> {
    pub tracer: &'a Tracer,
    /// The last traced run (every traced run yields the same counts).
    pub mirror: &'a MirrorRun,
    pub probes: &'a Probes,
    /// Wall seconds of the untraced runs timed beside the traced ones.
    pub untraced_s: &'a [f64],
    /// Threads the executor spreads a round over: 1 under `Sequential`.
    pub max_workers: usize,
    pub cache_on: bool,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One traced round's executor span and the replayed client work under it.
#[derive(Default)]
struct RoundWork {
    run_round_ns: u64,
    local_update_ns: u64,
    trained: usize,
}

pub fn derive(ctx: &Context) -> Vec<Measured> {
    let t = ctx.tracer;
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64, n: usize| out.push(Measured { name, value, n });
    let p50 = |name: &str| -> (f64, usize) {
        let d = t.durations_us(name);
        (median(&d), d.len())
    };

    // Wall time of each traced run, less the time spent noting what to
    // replay (the replays themselves run after it).
    let mut record_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for span in t.named("replay.record") {
        *record_ns.entry(span.rep).or_default() += span.ns();
    }
    let traced_s: Vec<f64> = t
        .named("simulation.run")
        .map(|run| (run.ns() - record_ns.get(&run.rep).copied().unwrap_or(0)) as f64 / 1e9)
        .collect();
    let reps = traced_s.len();
    let traced_ns = traced_s.iter().sum::<f64>() * 1e9;
    let share = |ns: u64| ns as f64 / traced_ns;

    let (pool_build_us, n) = p50("simulation.pool_build");
    put("simulation.pool_build_ms", pool_build_us / 1e3, n);
    put(
        "simulation.first_round_ms",
        median(&ctx.probes.first_round_ms),
        ctx.probes.first_round_ms.len(),
    );
    put(
        "simulation.other_share",
        share(t.self_ns("simulation.run") + t.self_ns("simulation.round")),
        reps,
    );
    // Noise only ever adds time, so with a handful of runs of each kind the
    // fastest of each is the best estimate of what it costs.
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let untraced = fastest(ctx.untraced_s);
    put(
        "trace.overhead_share",
        (fastest(&traced_s) - untraced) / untraced,
        reps,
    );

    let (sample_us, n) = p50("participation.sample");
    put("participation.sample_us_p50", sample_us, n);

    let run_round_us = t.durations_us("executor.run_round");
    let rounds = run_round_us.len();
    put(
        "executor.run_round_ms_p50",
        median(&run_round_us) / 1e3,
        rounds,
    );
    put(
        "executor.run_round_ms_p90",
        percentile(&run_round_us, 0.9) / 1e3,
        rounds,
    );
    put(
        "executor.share",
        share(t.total_ns("executor.run_round")),
        rounds,
    );

    let mut work: BTreeMap<(u32, Option<u32>), RoundWork> = BTreeMap::new();
    for span in t.spans() {
        let entry = || (span.rep, span.round);
        match span.name {
            "executor.run_round" => work.entry(entry()).or_default().run_round_ns = span.ns(),
            "client.local_update" => {
                let w = work.entry(entry()).or_default();
                w.local_update_ns += span.ns();
                w.trained += 1;
            }
            _ => {}
        }
    }
    let workers = |w: &RoundWork| w.trained.clamp(1, ctx.max_workers) as f64;
    let overhead_ms: Vec<f64> = work
        .values()
        .map(|w| ms(w.run_round_ns) - ms(w.local_update_ns) / workers(w))
        .collect();
    put("executor.overhead_ms_p50", median(&overhead_ms), rounds);
    let capacity_ns: f64 = work
        .values()
        .map(|w| workers(w) * w.run_round_ns as f64)
        .sum();
    put(
        "executor.parallel_efficiency",
        t.total_ns("client.local_update") as f64 / capacity_ns,
        rounds,
    );
    let updates: usize = ctx.mirror.rounds.iter().map(|r| r.participants).sum();
    let drops: usize = ctx.mirror.rounds.iter().map(|r| r.dropped).sum();
    put("executor.updates", updates as f64, 1);
    put("executor.drops", drops as f64, 1);

    let local_update_us = t.durations_us("client.local_update");
    let n = local_update_us.len();
    put("client.local_update_us_p50", median(&local_update_us), n);
    put(
        "client.local_update_us_p90",
        percentile(&local_update_us, 0.9),
        n,
    );
    let (hit_us, hits) = p50("cache.lookup_hit");
    put(
        "client.train_self_us_p50",
        median(&train_self_us(t.spans(), ctx.cache_on.then_some(hit_us))),
        n,
    );

    put("cache.lookup_hit_us_p50", hit_us, hits);
    let (miss_us, misses) = p50("cache.build_miss");
    put("cache.build_miss_us_p50", miss_us, misses);
    let cache = &ctx.mirror.cache;
    let lookups = cache.hits + cache.misses;
    put(
        "cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        },
        lookups,
    );
    put("cache.evictions", cache.evictions as f64, 1);
    put("cache.peak_bytes", cache.peak_bytes as f64, 1);

    let (score_us, n) = p50("selection.score");
    put("selection.score_us_p50", score_us, n);
    put(
        "selection.kept_ratio",
        ctx.mirror.kept as f64 / ctx.mirror.available.max(1) as f64,
        ctx.mirror.available,
    );

    let (frozen_us, n) = p50("nn.block.forward_frozen");
    put("nn.block.forward_frozen_us_p50", frozen_us, n);
    let (eval_us, n) = p50("nn.block.eval");
    put("nn.block.eval_ms_p50", eval_us / 1e3, n);
    put("nn.block.eval_share", share(t.total_ns("nn.block.eval")), n);
    let (suffix_us, n) = p50("nn.block.trainable_suffix");
    put("nn.block.trainable_suffix_us_p50", suffix_us, n);
    let (set_theta_us, n) = p50("nn.block.set_theta");
    put("nn.block.set_theta_us_p50", set_theta_us, n);

    let probes = ctx.probes;
    let mut probe = |name: &'static str, us: &[f64]| put(name, median(us), us.len());
    probe("nn.suffix.train_batch_us_p50", &probes.train_batch_us);

    let (aggregate_us, n) = p50("server.aggregate");
    probe("comm.encode_us_p50", &probes.encode_us);
    probe("comm.decode_us_p50", &probes.decode_us);
    probe("tensor.matmul_train_shape_us_p50", &probes.matmul_train_us);
    probe("tensor.matmul_eval_shape_us_p50", &probes.matmul_eval_us);
    probe("tensor.pool_dispatch_us_p50", &probes.pool_dispatch_us);
    put("comm.update_bytes", probes.update_bytes as f64, 1);
    put("server.aggregate_ms_p50", aggregate_us / 1e3, n);
    put(
        "server.aggregate_share",
        share(t.total_ns("server.aggregate")),
        n,
    );
    put("server.updates_in", updates as f64, 1);
    out
}

/// Per replayed client: `local_update` minus its selection scoring and
/// minus the frozen-prefix work that precedes scoring — a cache hit
/// (`hit_us`) when the cache is on, else the forward pass over the shard.
/// The replay records one client's spans back to back, in a fixed order.
fn train_self_us(spans: &[Span], hit_us: Option<f64>) -> Vec<f64> {
    let us = |s: &Span| s.ns() as f64 / 1e3;
    let mut out = Vec::new();
    let (mut frozen, mut local_update) = (0.0, 0.0);
    for span in spans {
        match span.name {
            "nn.block.forward_frozen" => frozen = us(span),
            "client.local_update" => local_update = us(span),
            "selection.score" => out.push(local_update - us(span) - hit_us.unwrap_or(frozen)),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_self_subtracts_scoring_and_prefix_work() {
        let span = |name, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            rep: 0,
            round: Some(0),
            client: Some(1),
        };
        let spans = [
            span("nn.block.forward_frozen", 0, 4_000),
            span("cache.lookup_hit", 4_000, 5_000),
            span("nn.block.trainable_suffix", 5_000, 6_000),
            span("client.local_update", 6_000, 36_000),
            span("selection.score", 36_000, 42_000),
        ];
        // Cache off: 30 − 6 − 4 (the forward pass); cache on: 30 − 6 − 1.
        assert_eq!(train_self_us(&spans, None), [20.0]);
        assert_eq!(train_self_us(&spans, Some(1.0)), [23.0]);
    }
}
