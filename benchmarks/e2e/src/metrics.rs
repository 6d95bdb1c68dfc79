//! The names, units and directions of every metric the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

/// What a user of the simulator sees, measured with tracing off.
///
/// The three timings are at nominal host speed (`crate::reference`). Ten
/// invocations of one commit then lie 3-7.5% apart (quartile distance over
/// median) on the shared two-core VM the benchmark was sized on, and up to
/// 12% on the two workloads with the most memory traffic when the memory
/// system's speed drifts, so the timing bounds are the widest the benchmark
/// contract allows. `final_accuracy` repeats exactly for one seed; its bound
/// covers the 2-7% spread between seeds on `eval_heavy`. `peak_rss_mb`
/// spreads up to 3.7%.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        def: lower("setup_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("round_ms", "ms"),
        bound: 0.25,
    },
    EndToEnd {
        def: higher("updates_per_s", "1/s"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("peak_rss_mb", "MB"),
        bound: 0.15,
    },
    EndToEnd {
        def: higher("final_accuracy", "fraction"),
        bound: 0.25,
    },
];

/// Single-layer metrics from the traced run and the probes. Times carry
/// their unit and percentile in the name; a metric that does not apply to a
/// workload (the cache's when the cache is off) reads 0.
pub const PER_LAYER: [MetricDef; 37] = [
    lower("simulation.pool_build_ms", "ms"),
    lower("simulation.first_round_ms", "ms"),
    lower("simulation.other_share", "fraction"),
    lower("trace.overhead_share", "fraction"),
    lower("participation.sample_us_p50", "us"),
    lower("executor.run_round_ms_p50", "ms"),
    lower("executor.run_round_ms_p90", "ms"),
    lower("executor.share", "fraction"),
    lower("executor.overhead_ms_p50", "ms"),
    higher("executor.parallel_efficiency", "fraction"),
    higher("executor.updates", "count"),
    lower("executor.drops", "count"),
    lower("client.local_update_us_p50", "us"),
    lower("client.local_update_us_p90", "us"),
    lower("client.train_self_us_p50", "us"),
    lower("cache.lookup_hit_us_p50", "us"),
    lower("cache.build_miss_us_p50", "us"),
    higher("cache.hit_ratio", "fraction"),
    lower("cache.evictions", "count"),
    lower("cache.peak_bytes", "B"),
    lower("selection.score_us_p50", "us"),
    lower("selection.kept_ratio", "fraction"),
    lower("nn.block.forward_frozen_us_p50", "us"),
    lower("nn.block.eval_ms_p50", "ms"),
    lower("nn.block.eval_share", "fraction"),
    lower("nn.block.trainable_suffix_us_p50", "us"),
    lower("nn.block.set_theta_us_p50", "us"),
    lower("nn.suffix.train_batch_us_p50", "us"),
    lower("server.aggregate_ms_p50", "ms"),
    lower("server.aggregate_share", "fraction"),
    higher("server.updates_in", "count"),
    lower("comm.encode_us_p50", "us"),
    lower("comm.decode_us_p50", "us"),
    lower("comm.update_bytes", "B"),
    lower("tensor.matmul_train_shape_us_p50", "us"),
    lower("tensor.matmul_eval_shape_us_p50", "us"),
    lower("tensor.pool_dispatch_us_p50", "us"),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
}
