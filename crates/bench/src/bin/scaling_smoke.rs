//! CI scaling smoke: a short Sequential vs Parallel vs Async comparison on
//! a small federated task, recording the first multi-core scaling curve for
//! this repo (the recorded-bench host is single-core, GitHub runners are
//! not — see ROADMAP).
//!
//! The binary
//!
//! 1. runs the same simulation on the `Sequential`, `Parallel` and
//!    `Async { max_staleness }` backends, timing real wall-clock, plus one
//!    `Sequential` run with the frozen-feature cache enabled;
//! 2. checks the determinism contracts: `Parallel`, `Async(0)` *and* the
//!    cache-enabled run's histories must be bit-identical to `Sequential`;
//! 3. on multi-core hosts asserts parallel wall-clock ≤ sequential (with a
//!    small noise allowance) — exit non-zero otherwise;
//! 4. runs a **logical client pool**: ~10k logical clients over 100
//!    physical shards with the shared cache registry under a byte budget
//!    set *below* what the 100 distinct per-shard caches hold. The run
//!    must stay under budget (peak cache bytes ≤ budget — exit non-zero
//!    otherwise) and its learning history must be bit-identical to the
//!    unbudgeted and the cache-off runs of the same pool;
//! 5. runs the **streaming serving mode** over a 100k-logical-client pool
//!    (200 shards, burst arrivals, FedBuff buffer K=100): the budgeted run
//!    must stay under its cache byte budget while evicting and its history
//!    must be bit-identical to the unbudgeted run; its sustained
//!    aggregated-updates/sec beside the sequential backend's on the same
//!    cohort is reported, not asserted (`benchmarks/e2e` measures that rate
//!    under a bound, as `updates_per_s` on `stream_nocache`);
//! 6. runs the **contended cache pool**: N threads hammering one shared
//!    `CacheRegistry` with hit-path lookups over a prewarmed key set, once
//!    against the single-lock (1-shard) configuration and once against the
//!    auto-sharded one. Counter exactness (hits + misses = lookups) is
//!    always asserted; on multi-core hosts the sharded registry's
//!    lookups/sec must be at least the single lock's (same gate as the
//!    parallel speedup check);
//! 7. runs the **pool dispatch contrast**: many round-shaped fan-outs of
//!    small per-chunk work, dispatched once through the persistent worker
//!    pool (what the round executor does) and once via fresh
//!    `thread::scope` spawns (what it used to do). On multi-core hosts the
//!    pooled rounds/sec must be at least the spawning variant's (same gate
//!    as the parallel speedup check);
//! 8. writes a `BENCH_scaling.json` artifact with the measured curve, the
//!    *simulated* wall-clock contrast (async overlap vs synchronous
//!    rounds), per-backend cache hit/miss/peak-bytes counters, the
//!    logical-pool cache section, the streaming throughput/flush section,
//!    the cache-contention section and the pool-dispatch section — all
//!    hardware-independent except the elapsed times.
//!
//! Usage: `scaling_smoke [--out BENCH_scaling.json]`. Set
//! `FEDFT_SCALING_ASSERT=0`/`1` to force the speedup assertion off/on
//! (default: on when more than one core is available).
//!
//! Run via `cargo run --release -p fedft-bench --bin scaling_smoke` — debug
//! builds are slow enough to distort the curve.

use fedft_core::{
    ArrivalModel, CacheRegistry, ExecutionBackend, FlConfig, FlushTrigger, HeterogeneityModel,
    Method, RunResult, Simulation, StreamingParams,
};
use fedft_data::federated::PartitionScheme;
use fedft_data::{domains, FederatedDataset};
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
use fedft_tensor::Matrix;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

const CLIENTS: usize = 12;
const ROUNDS: usize = 3;
const SEED: u64 = 5;
/// Logical-pool scenario: a cohort two orders of magnitude larger than its
/// physical data, the regime the shared cache registry exists for.
const POOL_SHARDS: usize = 100;
const POOL_LOGICAL_CLIENTS: usize = 10_000;
const POOL_ROUNDS: usize = 2;
/// ≈ participants per pool round (fraction of the logical cohort).
const POOL_PARTICIPANTS: usize = 40;
/// Streaming scenario: continuous buffered serving over a planet-scale
/// logical cohort — 100k clients over 200 physical shards, the regime the
/// streaming backend + shared cache registry are built for.
const STREAM_SHARDS: usize = 200;
const STREAM_LOGICAL_CLIENTS: usize = 100_000;
const STREAM_ROUNDS: usize = 3;
/// ≈ participants invited per flush interval.
const STREAM_PARTICIPANTS: usize = 150;
/// FedBuff `K`: shallower than the invited cohort, so the fast tier
/// flushes early and the slowest arrivals are carried into later
/// intervals — while staying close enough to the arrival rate that the
/// server keeps up (the aggregated-updates/sec contract below).
const STREAM_BUFFER: usize = 140;
/// Contention scenario: hit-path lookups against one shared registry from
/// every core — the path that serialized on the registry's single mutex
/// before sharding. The key set is larger than any realistic shard count so
/// every lock shard stays busy.
const CONTENTION_KEYS: usize = 64;
/// Hit lookups per hammering thread (the key set is prewarmed first, so
/// misses never mix into the measured loop).
const CONTENTION_LOOKUPS: usize = 200_000;
/// Pool-dispatch scenario: round-shaped fan-outs where the per-chunk work
/// is small enough that dispatch overhead is a visible fraction of each
/// round — the regime where pooled wake-ups beat fresh spawns hardest.
const DISPATCH_ROUNDS: usize = 300;
/// Parallel may be up to this factor slower than sequential before the
/// smoke check fails — absorbs scheduler noise on shared CI runners while
/// still catching a parallel path that stopped scaling at all.
const NOISE_ALLOWANCE: f64 = 1.10;

struct Measurement {
    label: &'static str,
    elapsed_seconds: f64,
    simulated_wall_seconds: f64,
    max_staleness: usize,
    result: RunResult,
}

fn setup() -> Result<(FederatedDataset, BlockNet), Box<dyn std::error::Error>> {
    // Sized so a sequential run takes on the order of a second in release
    // mode: long enough that per-round thread fan-out is amortised and a
    // multi-core host shows a genuine parallel speedup, short enough for a
    // smoke job.
    let target = domains::cifar10_like()
        .with_samples_per_class(600)
        .with_test_samples_per_class(8)
        .generate(2)?;
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        CLIENTS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        7,
    )?;
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(192, 192, 192);
    Ok((fed, BlockNet::new(&model_cfg, 3)))
}

fn base_config() -> FlConfig {
    Method::FedFtEds { pds: 0.5 }.configure(
        FlConfig::default()
            .with_rounds(ROUNDS)
            .with_local_epochs(3)
            .with_batch_size(16)
            .with_seed(SEED)
            .with_participation(0.5)
            .with_heterogeneity(HeterogeneityModel::two_tier()),
    )
}

fn measure(
    label: &'static str,
    config: FlConfig,
    fed: &FederatedDataset,
    model: &BlockNet,
) -> Result<Measurement, Box<dyn std::error::Error>> {
    let sim = Simulation::new(config)?;
    let start = Instant::now();
    let result = sim.run_labelled(label, fed, model)?;
    let elapsed_seconds = start.elapsed().as_secs_f64();
    Ok(Measurement {
        label,
        elapsed_seconds,
        simulated_wall_seconds: result.total_wall_seconds(),
        max_staleness: result.max_update_staleness(),
        result,
    })
}

/// Outcome of the logical-pool scenario, written into the JSON artifact.
struct PoolReport {
    budget_bytes: usize,
    dedup_bytes: usize,
    peak_bytes: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

fn pool_setup() -> Result<(FederatedDataset, BlockNet), Box<dyn std::error::Error>> {
    let target = domains::cifar10_like()
        .with_samples_per_class(60)
        .with_test_samples_per_class(4)
        .generate(9)?;
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        POOL_SHARDS,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        13,
    )?;
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(32, 32, 32);
    Ok((fed, BlockNet::new(&model_cfg, 7)))
}

fn pool_config() -> FlConfig {
    // Sequential on purpose: cache hit/miss/eviction counters are
    // deterministic when lookups happen in participant order (the learning
    // history is backend-invariant either way).
    Method::FedFtEds { pds: 0.5 }.configure(
        FlConfig::default()
            .with_rounds(POOL_ROUNDS)
            .with_local_epochs(1)
            .with_batch_size(8)
            .with_seed(SEED)
            .with_logical_clients(POOL_LOGICAL_CLIENTS)
            .with_participation(POOL_PARTICIPANTS as f64 / POOL_LOGICAL_CLIENTS as f64)
            .with_feature_cache(true)
            .serial(),
    )
}

/// Runs the logical-pool scenario and checks its contracts; `Err` carries
/// the violated contract for the caller to print and fail on.
fn run_logical_pool() -> Result<PoolReport, Box<dyn std::error::Error>> {
    let (fed, model) = pool_setup()?;
    let run = |label: &str, config: FlConfig| -> Result<RunResult, Box<dyn std::error::Error>> {
        Ok(Simulation::new(config)?.run_labelled(label, &fed, &model)?)
    };

    // The unbudgeted shared run measures the deduplicated working set: at
    // most one entry per distinct shard, whatever the cohort size.
    let unbounded = run("pool_shared_unbounded", pool_config())?;
    let dedup_bytes = unbounded.peak_cache_bytes();
    // The budget is set *below* the deduplicated set, so the registry must
    // evict to stay legal.
    let budget_bytes = (dedup_bytes / 2).max(1);
    if budget_bytes >= dedup_bytes {
        return Err(format!(
            "logical pool: budget {budget_bytes} is not below the deduplicated \
             working set {dedup_bytes}"
        )
        .into());
    }
    let budgeted = run(
        "pool_shared_budgeted",
        pool_config().with_cache_budget(budget_bytes),
    )?;
    let cache_off = run("pool_cache_off", pool_config().with_feature_cache(false))?;

    for (label, result) in [("cache-off", &cache_off), ("budgeted", &budgeted)] {
        if result.learning_history() != unbounded.learning_history() {
            return Err(format!(
                "logical pool: {label} history diverged from the shared registry's \
                 — determinism contract broken"
            )
            .into());
        }
    }
    let peak_bytes = budgeted.peak_cache_bytes();
    if peak_bytes > budget_bytes {
        return Err(format!(
            "logical pool: peak cache bytes {peak_bytes} exceed the budget {budget_bytes}"
        )
        .into());
    }
    if budgeted.total_cache_evictions() == 0 {
        return Err("logical pool: a budget below the working set must evict".into());
    }
    Ok(PoolReport {
        budget_bytes,
        dedup_bytes,
        peak_bytes,
        hits: budgeted.total_cache_hits(),
        misses: budgeted.total_cache_misses(),
        evictions: budgeted.total_cache_evictions(),
    })
}

/// Outcome of the streaming scenario, written into the JSON artifact.
struct StreamReport {
    budget_bytes: usize,
    peak_bytes: usize,
    dedup_bytes: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
    flushes: usize,
    buffer_full_flushes: usize,
    timeout_flushes: usize,
    drain_flushes: usize,
    carried_updates: usize,
    streaming_updates: usize,
    streaming_elapsed_seconds: f64,
    streaming_updates_per_sec: f64,
    sequential_updates: usize,
    sequential_elapsed_seconds: f64,
    sequential_updates_per_sec: f64,
}

fn stream_setup() -> Result<(FederatedDataset, BlockNet), Box<dyn std::error::Error>> {
    // Sized so each arrival's local training is large enough to amortise
    // the parallel executor's per-client fan-out (the reported rate is real
    // elapsed time), while the whole phase stays a smoke.
    let target = domains::cifar10_like()
        .with_samples_per_class(1_000)
        .with_test_samples_per_class(4)
        .generate(9)?;
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        STREAM_SHARDS,
        PartitionScheme::Iid,
        13,
    )?;
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(64, 64, 64);
    Ok((fed, BlockNet::new(&model_cfg, 7)))
}

fn stream_config() -> FlConfig {
    Method::FedFtEds { pds: 0.5 }.configure(
        FlConfig::default()
            .with_rounds(STREAM_ROUNDS)
            .with_local_epochs(1)
            .with_batch_size(8)
            .with_seed(SEED)
            .with_logical_clients(STREAM_LOGICAL_CLIENTS)
            .with_participation(STREAM_PARTICIPANTS as f64 / STREAM_LOGICAL_CLIENTS as f64)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_feature_cache(true),
    )
}

/// Runs the streaming serving scenario and checks its contracts:
/// buffered continuous aggregation over a 100k-logical-client pool must
/// stay inside a fixed cache byte budget (evicting to do so) and replay the
/// unbudgeted history. Its aggregated-updates/sec and the sequential
/// backend's are reported side by side; real time is not a contract here.
fn run_streaming_pool() -> Result<StreamReport, Box<dyn std::error::Error>> {
    let (fed, model) = stream_setup()?;
    let params = StreamingParams::new(STREAM_BUFFER)
        .with_max_staleness(2)
        .with_arrival(ArrivalModel::Burst {
            mean_offset_seconds: 2.0,
        });
    let timed = |label: &'static str,
                 config: FlConfig|
     -> Result<(RunResult, f64), Box<dyn std::error::Error>> {
        let sim = Simulation::new(config)?;
        let start = Instant::now();
        let result = sim.run_labelled(label, &fed, &model)?;
        Ok((result, start.elapsed().as_secs_f64()))
    };

    // The unbudgeted run measures the deduplicated working set under
    // streaming churn; the budget is then set below it so the registry must
    // evict to stay legal.
    let (unbounded, _) = timed("stream_unbounded", stream_config().with_streaming(params))?;
    let dedup_bytes = unbounded.peak_cache_bytes();
    let budget_bytes = (dedup_bytes / 2).max(1);
    let (streaming, streaming_elapsed_seconds) = timed(
        "stream_budgeted",
        stream_config()
            .with_streaming(params)
            .with_cache_budget(budget_bytes),
    )?;
    if streaming.learning_history() != unbounded.learning_history() {
        return Err("streaming pool: budgeted history diverged from unbounded \
                    — determinism contract broken"
            .into());
    }
    let peak_bytes = streaming.peak_cache_bytes();
    if peak_bytes > budget_bytes {
        return Err(format!(
            "streaming pool: peak cache bytes {peak_bytes} exceed the budget {budget_bytes}"
        )
        .into());
    }
    if streaming.total_cache_evictions() == 0 {
        return Err("streaming pool: a budget below the working set must evict".into());
    }
    if streaming.flush_count() != streaming.rounds.len() {
        return Err("streaming pool: every streaming round must record a flush".into());
    }

    // Sequential baseline over the *same* cohort and cache budget, for the
    // reported rate.
    let (sequential, sequential_elapsed_seconds) = timed(
        "stream_sequential",
        stream_config().serial().with_cache_budget(budget_bytes),
    )?;
    let streaming_updates = streaming.total_aggregated_updates();
    let sequential_updates = sequential.total_aggregated_updates();
    let streaming_updates_per_sec = streaming_updates as f64 / streaming_elapsed_seconds;
    let sequential_updates_per_sec = sequential_updates as f64 / sequential_elapsed_seconds;
    Ok(StreamReport {
        budget_bytes,
        peak_bytes,
        dedup_bytes,
        hits: streaming.total_cache_hits(),
        misses: streaming.total_cache_misses(),
        evictions: streaming.total_cache_evictions(),
        flushes: streaming.flush_count(),
        buffer_full_flushes: streaming.flush_count_for(FlushTrigger::BufferFull),
        timeout_flushes: streaming.flush_count_for(FlushTrigger::Timeout),
        drain_flushes: streaming.flush_count_for(FlushTrigger::Drain),
        carried_updates: streaming.total_carried_updates(),
        streaming_updates,
        streaming_elapsed_seconds,
        streaming_updates_per_sec,
        sequential_updates,
        sequential_elapsed_seconds,
        sequential_updates_per_sec,
    })
}

/// Outcome of the cache-contention scenario, written into the JSON artifact.
struct ContentionReport {
    threads: usize,
    keys: usize,
    lookups_per_thread: usize,
    single_shards: usize,
    sharded_shards: usize,
    single_lookups_per_sec: f64,
    sharded_lookups_per_sec: f64,
    speedup: f64,
}

/// Prewarms `registry` with every contention key, then hammers it with hit
/// lookups from `threads` threads and returns sustained lookups/sec.
/// `Err` carries a broken counter-exactness contract.
fn hammer_registry(
    registry: &CacheRegistry,
    model: &BlockNet,
    keys: &[Matrix],
    threads: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let freeze = FreezeLevel::Moderate;
    for key in keys {
        registry.get_or_build(model, freeze, key)?;
    }
    let warm = registry.stats();
    if (warm.misses, warm.entries) != (keys.len(), keys.len()) {
        return Err(format!(
            "cache contention: prewarm built {} entries from {} misses, expected {}",
            warm.entries,
            warm.misses,
            keys.len()
        )
        .into());
    }

    // All threads start on a barrier so the measured window only contains
    // contended lookups; each thread walks the key set from its own offset
    // with a stride co-prime to the set size, so every shard sees traffic
    // from every thread.
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        let mut workers = Vec::with_capacity(threads);
        for t in 0..threads {
            let registry = registry.clone();
            let barrier = &barrier;
            workers.push(scope.spawn(move || -> Result<(), String> {
                barrier.wait();
                for i in 0..CONTENTION_LOOKUPS {
                    let key = &keys[(i * 7 + t * 3) % keys.len()];
                    let served = registry
                        .get_or_build(model, freeze, key)
                        .map_err(|e| e.to_string())?;
                    // Touch the result so the lookup cannot be optimised out.
                    if served.rows() != key.rows() {
                        return Err("cache served a wrong-shape entry".into());
                    }
                }
                Ok(())
            }));
        }
        for worker in workers {
            worker.join().expect("contention worker panicked")?;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed().as_secs_f64();

    // Exact-counter contract: the consistent-cut snapshot must account for
    // every single lookup — prewarm misses plus all hammered hits.
    let stats = registry.stats();
    let expected_hits = threads * CONTENTION_LOOKUPS;
    if stats.hits != expected_hits || stats.misses != keys.len() {
        return Err(format!(
            "cache contention: counters lost events — {} hits / {} misses, \
             expected {expected_hits} / {}",
            stats.hits,
            stats.misses,
            keys.len()
        )
        .into());
    }
    Ok(expected_hits as f64 / elapsed)
}

/// Runs the contended-pool scenario: the same multi-thread hit workload
/// against a single-lock registry and an auto-sharded one. Counter
/// exactness is always asserted; the sharded ≥ single-lock throughput
/// contract only on multi-core hosts (`assert_throughput`).
fn run_cache_contention(
    cores: usize,
    assert_throughput: bool,
) -> Result<ContentionReport, Box<dyn std::error::Error>> {
    // A deliberately tiny model: the frozen forward only runs during
    // prewarm, and hit-path cost must dominate so the measurement stresses
    // the locks, not the kernels.
    let model = BlockNet::new(&BlockNetConfig::new(6, 4).with_hidden(8, 8, 8), 11);
    let keys: Vec<Matrix> = (0..CONTENTION_KEYS)
        .map(|k| {
            Matrix::from_vec(
                4,
                6,
                (0..24).map(|v| (v + k) as f32 * 0.125 - 1.0).collect(),
            )
        })
        .collect::<Result<_, _>>()?;
    let threads = cores.clamp(1, 8);

    let single = CacheRegistry::sharded(1, None);
    let single_lookups_per_sec = hammer_registry(&single, &model, &keys, threads)?;
    let sharded = CacheRegistry::sharded(CacheRegistry::auto_shard_count(), None);
    let sharded_lookups_per_sec = hammer_registry(&sharded, &model, &keys, threads)?;

    let speedup = sharded_lookups_per_sec / single_lookups_per_sec;
    if assert_throughput && sharded_lookups_per_sec * NOISE_ALLOWANCE < single_lookups_per_sec {
        return Err(format!(
            "cache contention: sharded registry sustains {sharded_lookups_per_sec:.0} \
             lookups/sec, below the single lock's {single_lookups_per_sec:.0} on \
             {cores} cores"
        )
        .into());
    }
    Ok(ContentionReport {
        threads,
        keys: CONTENTION_KEYS,
        lookups_per_thread: CONTENTION_LOOKUPS,
        single_shards: single.shard_count(),
        sharded_shards: sharded.shard_count(),
        single_lookups_per_sec,
        sharded_lookups_per_sec,
        speedup,
    })
}

/// Outcome of the pool-dispatch scenario, written into the JSON artifact.
struct PoolDispatchReport {
    rounds: usize,
    chunks_per_round: usize,
    pooled_rounds_per_sec: f64,
    spawn_rounds_per_sec: f64,
    speedup: f64,
}

/// Runs the pool-dispatch contrast: `DISPATCH_ROUNDS` round-shaped
/// fan-outs of small per-chunk GEMM work, dispatched through the
/// persistent worker pool (the round executor's path) and via fresh
/// `thread::scope` spawns (the pre-pool path, kept here as the reference).
/// On multi-core hosts (`assert_throughput`) the pooled variant must
/// sustain at least the spawning variant's rounds/sec.
fn run_pool_dispatch(
    cores: usize,
    assert_throughput: bool,
) -> Result<PoolDispatchReport, Box<dyn std::error::Error>> {
    let chunks = cores.clamp(2, 8);
    // Small enough that a round is dominated by coordination, big enough
    // that the chunk bodies are real work the scheduler must wait for.
    let a = Matrix::from_vec(32, 48, (0..32 * 48).map(|v| v as f32 * 1e-3).collect())?;
    let b = Matrix::from_vec(
        48,
        32,
        (0..48 * 32).map(|v| v as f32 * 1e-3 - 0.7).collect(),
    )?;
    let chunk_work = || -> Result<f32, fedft_tensor::TensorError> {
        // Mirror the executor: each chunk runs its kernels single-threaded
        // so the fan-out under measurement is the only parallelism.
        fedft_tensor::parallel::single_threaded(|| a.matmul(&b).map(|m| m.get(0, 0)))
    };

    let pooled_start = Instant::now();
    for _ in 0..DISPATCH_ROUNDS {
        let outputs = fedft_tensor::pool::run_chunks(chunks, chunks, |_range| chunk_work());
        for output in outputs {
            output?;
        }
    }
    let pooled_rounds_per_sec = DISPATCH_ROUNDS as f64 / pooled_start.elapsed().as_secs_f64();

    let spawn_start = Instant::now();
    for _ in 0..DISPATCH_ROUNDS {
        std::thread::scope(|scope| -> Result<(), fedft_tensor::TensorError> {
            let handles: Vec<_> = (0..chunks).map(|_| scope.spawn(chunk_work)).collect();
            for handle in handles {
                handle.join().expect("spawned dispatch chunk panicked")?;
            }
            Ok(())
        })?;
    }
    let spawn_rounds_per_sec = DISPATCH_ROUNDS as f64 / spawn_start.elapsed().as_secs_f64();

    let speedup = pooled_rounds_per_sec / spawn_rounds_per_sec;
    if assert_throughput && pooled_rounds_per_sec * NOISE_ALLOWANCE < spawn_rounds_per_sec {
        return Err(format!(
            "pool dispatch: pooled fan-out sustains {pooled_rounds_per_sec:.0} rounds/sec, \
             below scoped spawning's {spawn_rounds_per_sec:.0} on {cores} cores"
        )
        .into());
    }
    Ok(PoolDispatchReport {
        rounds: DISPATCH_ROUNDS,
        chunks_per_round: chunks,
        pooled_rounds_per_sec,
        spawn_rounds_per_sec,
        speedup,
    })
}

fn assert_speedup_enabled(cores: usize) -> bool {
    match std::env::var("FEDFT_SCALING_ASSERT").as_deref() {
        Ok("0") => false,
        Ok("") | Err(_) => cores > 1,
        Ok(_) => true,
    }
}

fn render_json(
    cores: usize,
    measurements: &[Measurement],
    asserted: bool,
    pool: &PoolReport,
    stream: &StreamReport,
    contention: &ContentionReport,
    dispatch: &PoolDispatchReport,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"crates/bench/src/bin/scaling_smoke.rs\","
    );
    let _ = writeln!(
        out,
        "  \"scenario\": \"{CLIENTS} clients, Dirichlet(0.5), {ROUNDS} rounds, \
         FedFT-EDS 50%, two-tier mix, 50% participation\","
    );
    let _ = writeln!(out, "  \"available_cores\": {cores},");
    let _ = writeln!(out, "  \"speedup_asserted\": {asserted},");
    out.push_str("  \"backends\": {\n");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"elapsed_seconds\": {:.4}, \"simulated_wall_seconds\": {:.4}, \
             \"max_staleness\": {}, \"cache\": {{\"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"peak_bytes\": {}}}}}{comma}",
            m.label,
            m.elapsed_seconds,
            m.simulated_wall_seconds,
            m.max_staleness,
            m.result.total_cache_hits(),
            m.result.total_cache_misses(),
            m.result.total_cache_evictions(),
            m.result.peak_cache_bytes(),
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"logical_pool\": {\n");
    let _ = writeln!(
        out,
        "    \"scenario\": \"{POOL_LOGICAL_CLIENTS} logical clients over {POOL_SHARDS} \
         shards, Dirichlet(0.5), {POOL_ROUNDS} rounds, FedFT-EDS 50%, \
         ~{POOL_PARTICIPANTS} participants per round\","
    );
    let _ = writeln!(out, "    \"budget_bytes\": {},", pool.budget_bytes);
    let _ = writeln!(out, "    \"peak_bytes\": {},", pool.peak_bytes);
    let _ = writeln!(out, "    \"dedup_bytes\": {},", pool.dedup_bytes);
    let _ = writeln!(
        out,
        "    \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
        pool.hits, pool.misses, pool.evictions
    );
    out.push_str("  },\n");
    out.push_str("  \"streaming\": {\n");
    let _ = writeln!(
        out,
        "    \"scenario\": \"{STREAM_LOGICAL_CLIENTS} logical clients over {STREAM_SHARDS} \
         shards, {STREAM_ROUNDS} flush intervals, ~{STREAM_PARTICIPANTS} arrivals per \
         interval, K={STREAM_BUFFER}, burst arrivals, staleness bound 2\","
    );
    let _ = writeln!(
        out,
        "    \"updates_per_sec\": {{\"streaming\": {:.2}, \"sequential\": {:.2}}},",
        stream.streaming_updates_per_sec, stream.sequential_updates_per_sec
    );
    let _ = writeln!(
        out,
        "    \"aggregated_updates\": {{\"streaming\": {}, \"sequential\": {}}},",
        stream.streaming_updates, stream.sequential_updates
    );
    let _ = writeln!(
        out,
        "    \"elapsed_seconds\": {{\"streaming\": {:.4}, \"sequential\": {:.4}}},",
        stream.streaming_elapsed_seconds, stream.sequential_elapsed_seconds
    );
    let _ = writeln!(
        out,
        "    \"flushes\": {{\"total\": {}, \"buffer_full\": {}, \"timeout\": {}, \
         \"drain\": {}, \"carried_updates\": {}}},",
        stream.flushes,
        stream.buffer_full_flushes,
        stream.timeout_flushes,
        stream.drain_flushes,
        stream.carried_updates
    );
    let _ = writeln!(out, "    \"budget_bytes\": {},", stream.budget_bytes);
    let _ = writeln!(out, "    \"peak_bytes\": {},", stream.peak_bytes);
    let _ = writeln!(out, "    \"dedup_bytes\": {},", stream.dedup_bytes);
    let _ = writeln!(
        out,
        "    \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
        stream.hits, stream.misses, stream.evictions
    );
    out.push_str("  },\n");
    out.push_str("  \"cache_contention\": {\n");
    let _ = writeln!(
        out,
        "    \"scenario\": \"{} threads x {} hit lookups over {} prewarmed keys, \
         single-lock vs sharded registry\",",
        contention.threads, contention.lookups_per_thread, contention.keys
    );
    let _ = writeln!(out, "    \"threads\": {},", contention.threads);
    let _ = writeln!(out, "    \"keys\": {},", contention.keys);
    let _ = writeln!(
        out,
        "    \"lookups_per_thread\": {},",
        contention.lookups_per_thread
    );
    let _ = writeln!(
        out,
        "    \"shard_counts\": {{\"single\": {}, \"sharded\": {}}},",
        contention.single_shards, contention.sharded_shards
    );
    let _ = writeln!(
        out,
        "    \"lookups_per_sec\": {{\"single\": {:.0}, \"sharded\": {:.0}}},",
        contention.single_lookups_per_sec, contention.sharded_lookups_per_sec
    );
    let _ = writeln!(out, "    \"speedup\": {:.3},", contention.speedup);
    let _ = writeln!(out, "    \"asserted\": {asserted}");
    out.push_str("  },\n");
    out.push_str("  \"pool_dispatch\": {\n");
    let _ = writeln!(
        out,
        "    \"scenario\": \"{} round-shaped fan-outs x {} chunks of small GEMM work, \
         persistent pool vs fresh thread::scope spawns\",",
        dispatch.rounds, dispatch.chunks_per_round
    );
    let _ = writeln!(out, "    \"rounds\": {},", dispatch.rounds);
    let _ = writeln!(
        out,
        "    \"chunks_per_round\": {},",
        dispatch.chunks_per_round
    );
    let _ = writeln!(
        out,
        "    \"rounds_per_sec\": {{\"pooled\": {:.1}, \"spawn\": {:.1}}},",
        dispatch.pooled_rounds_per_sec, dispatch.spawn_rounds_per_sec
    );
    let _ = writeln!(out, "    \"speedup\": {:.3},", dispatch.speedup);
    let _ = writeln!(out, "    \"asserted\": {asserted}");
    out.push_str("  }\n}\n");
    out
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_scaling.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("scaling_smoke: --out requires a value");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("scaling_smoke: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let cores = fedft_tensor::pool::hardware_threads();
    println!("scaling smoke on {cores} core(s): {CLIENTS} clients, {ROUNDS} rounds");

    let (fed, model) = match setup() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("scaling_smoke: setup failed: {e}");
            return ExitCode::from(2);
        }
    };
    let plan: [(&'static str, FlConfig); 5] = [
        (
            "sequential",
            base_config().with_execution(ExecutionBackend::Sequential),
        ),
        (
            "parallel",
            base_config().with_execution(ExecutionBackend::Parallel),
        ),
        ("async_s0", base_config().with_async(0)),
        ("async_s2", base_config().with_async(2)),
        // The frozen-feature cache must replay the sequential history bit
        // for bit while skipping the frozen prefix's recomputation.
        (
            "sequential_cached",
            base_config()
                .with_execution(ExecutionBackend::Sequential)
                .with_feature_cache(true),
        ),
    ];
    let mut measurements = Vec::new();
    for (label, config) in plan {
        match measure(label, config, &fed, &model) {
            Ok(m) => {
                println!(
                    "  {:<10} elapsed {:>7.3}s  simulated wall {:>9.2}s  max staleness {}",
                    m.label, m.elapsed_seconds, m.simulated_wall_seconds, m.max_staleness
                );
                measurements.push(m);
            }
            Err(e) => {
                eprintln!("scaling_smoke: backend {label} failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Measurements are addressed by label, not position, so editing the
    // plan can never silently re-point a contract at the wrong run.
    let by_label = |label: &str| -> &Measurement {
        measurements
            .iter()
            .find(|m| m.label == label)
            .unwrap_or_else(|| panic!("plan is missing the `{label}` run"))
    };
    // Determinism contracts: parallel, async(0) and the cache-enabled run
    // all replay the sequential history bit for bit (the cache counters
    // themselves are excluded — they describe the cache, which is off on
    // the reference run).
    let sequential = by_label("sequential");
    for label in ["parallel", "async_s0", "sequential_cached"] {
        let m = by_label(label);
        if m.result.learning_history() != sequential.result.learning_history() {
            eprintln!(
                "scaling_smoke: {} history diverged from sequential — determinism contract broken",
                m.label
            );
            return ExitCode::FAILURE;
        }
    }
    // The async overlap must never *lengthen* the simulated timeline.
    let async_s2 = by_label("async_s2");
    if async_s2.simulated_wall_seconds > sequential.simulated_wall_seconds {
        eprintln!(
            "scaling_smoke: async(2) simulated wall {:.2}s exceeds synchronous {:.2}s",
            async_s2.simulated_wall_seconds, sequential.simulated_wall_seconds
        );
        return ExitCode::FAILURE;
    }

    let asserted = assert_speedup_enabled(cores);
    let parallel = by_label("parallel");
    if asserted && parallel.elapsed_seconds > sequential.elapsed_seconds * NOISE_ALLOWANCE {
        eprintln!(
            "scaling_smoke: parallel wall-clock {:.3}s exceeds sequential {:.3}s on {cores} cores",
            parallel.elapsed_seconds, sequential.elapsed_seconds
        );
        return ExitCode::FAILURE;
    }
    if !asserted {
        println!("  (speedup assertion skipped: {cores} core(s) available)");
    }

    // Logical client pool: dedup + byte budget + bit-identity contracts.
    println!(
        "logical pool: {POOL_LOGICAL_CLIENTS} logical clients over {POOL_SHARDS} shards, \
         {POOL_ROUNDS} rounds"
    );
    let pool = match run_logical_pool() {
        Ok(report) => {
            println!(
                "  budget {} B, peak {} B, dedup set {} B",
                report.budget_bytes, report.peak_bytes, report.dedup_bytes
            );
            println!(
                "  cache hits {}  misses {}  evictions {}",
                report.hits, report.misses, report.evictions
            );
            report
        }
        Err(e) => {
            eprintln!("scaling_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Streaming serving mode: buffered continuous aggregation over a 100k
    // logical cohort — cache budget and history contracts, rate reported.
    println!(
        "streaming pool: {STREAM_LOGICAL_CLIENTS} logical clients over {STREAM_SHARDS} shards, \
         {STREAM_ROUNDS} flush intervals, K={STREAM_BUFFER}"
    );
    let stream = match run_streaming_pool() {
        Ok(report) => {
            println!(
                "  {:.1} updates/sec streaming vs {:.1} sequential ({} vs {} updates aggregated)",
                report.streaming_updates_per_sec,
                report.sequential_updates_per_sec,
                report.streaming_updates,
                report.sequential_updates
            );
            println!(
                "  flushes {} (buffer-full {}, timeout {}, drain {})  carried {}",
                report.flushes,
                report.buffer_full_flushes,
                report.timeout_flushes,
                report.drain_flushes,
                report.carried_updates
            );
            println!(
                "  budget {} B, peak {} B, dedup set {} B  (hits {}  misses {}  evictions {})",
                report.budget_bytes,
                report.peak_bytes,
                report.dedup_bytes,
                report.hits,
                report.misses,
                report.evictions
            );
            report
        }
        Err(e) => {
            eprintln!("scaling_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Contended cache pool: the same hit workload against the single-lock
    // and sharded registry configurations — counter exactness always,
    // throughput gated on multi-core like the other speedup checks.
    println!(
        "cache contention: {CONTENTION_KEYS} keys, {CONTENTION_LOOKUPS} lookups per thread, \
         up to {} threads",
        cores.clamp(1, 8)
    );
    let contention = match run_cache_contention(cores, asserted) {
        Ok(report) => {
            println!(
                "  single lock ({} shard): {:>12.0} lookups/sec",
                report.single_shards, report.single_lookups_per_sec
            );
            println!(
                "  sharded ({:>2} shards):   {:>12.0} lookups/sec  ({:.2}x)",
                report.sharded_shards, report.sharded_lookups_per_sec, report.speedup
            );
            report
        }
        Err(e) => {
            eprintln!("scaling_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Pool dispatch contrast: pooled wake-ups vs fresh spawns at round
    // granularity — the executor-level saving the worker pool exists for.
    println!(
        "pool dispatch: {DISPATCH_ROUNDS} fan-outs x {} chunks, pooled vs scoped spawns",
        cores.clamp(2, 8)
    );
    let dispatch = match run_pool_dispatch(cores, asserted) {
        Ok(report) => {
            println!(
                "  pooled {:.0} rounds/sec vs spawn {:.0} rounds/sec  ({:.2}x)",
                report.pooled_rounds_per_sec, report.spawn_rounds_per_sec, report.speedup
            );
            report
        }
        Err(e) => {
            eprintln!("scaling_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    let json = render_json(
        cores,
        &measurements,
        asserted,
        &pool,
        &stream,
        &contention,
        &dispatch,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("scaling_smoke: cannot write `{out_path}`: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
