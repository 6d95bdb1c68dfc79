//! End-to-end contract of the streaming serving mode.
//!
//! The discipline that keeps FedBuff-style buffered aggregation honest is
//! the same one `Async(0) ≡ Sequential` established: the **degenerate**
//! streaming configuration — buffer as deep as the cohort, steady arrivals,
//! staleness bound 0 — must reproduce the `SequentialExecutor` learning
//! history **bit for bit**. Relaxing the knobs buys throughput at the cost
//! of carryover: shallow buffers flush the fastest devices and carry
//! stragglers into later flush intervals (their staleness at aggregation
//! exceeding the dispatch bound, as recorded), flush timers close rounds on
//! schedule, and the whole mode composes with logical client pools under a
//! fixed cache byte budget.

use fedft::core::{
    ArrivalModel, ExecutionBackend, FlConfig, FlushTrigger, HeterogeneityModel, Method, RunResult,
    Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig};

const CLIENTS: usize = 12;
const SEED: u64 = 4;

fn setup() -> (FederatedDataset, BlockNet) {
    setup_with(CLIENTS, 24)
}

fn setup_with(shards: usize, samples_per_class: usize) -> (FederatedDataset, BlockNet) {
    let target = domains::cifar10_like()
        .with_samples_per_class(samples_per_class)
        .with_test_samples_per_class(6)
        .generate(2)
        .expect("target generation");
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        shards,
        PartitionScheme::Iid,
        7,
    )
    .expect("partitioning");
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(24, 24, 24);
    let model = BlockNet::new(&model_cfg, 5);
    (fed, model)
}

fn base_config() -> FlConfig {
    Method::FedFtEds { pds: 0.25 }.configure(
        FlConfig::default()
            .with_rounds(4)
            .with_local_epochs(2)
            .with_batch_size(16)
            .with_seed(SEED),
    )
}

fn run(config: FlConfig, fed: &FederatedDataset, model: &BlockNet) -> RunResult {
    Simulation::new(config)
        .expect("valid config")
        .run(fed, model)
        .expect("simulation succeeds")
}

#[test]
fn degenerate_streaming_is_bit_identical_to_the_sequential_executor() {
    let (fed, model) = setup();
    // Full participation: the cohort is the whole pool, so K = CLIENTS,
    // steady arrivals and staleness bound 0 make every round one full
    // synchronous flush. Homogeneous and two-tier populations alike.
    for hetero in [
        HeterogeneityModel::uniform(),
        HeterogeneityModel::two_tier(),
    ] {
        let config = base_config().with_heterogeneity(hetero);
        let sequential = run(
            config.clone().with_execution(ExecutionBackend::Sequential),
            &fed,
            &model,
        );
        let streaming = run(
            config.with_streaming(StreamingParams::new(CLIENTS)),
            &fed,
            &model,
        );
        // The learning history (which clears backend bookkeeping) is
        // bit-identical…
        assert_eq!(sequential.learning_history(), streaming.learning_history());
        assert_eq!(streaming.max_update_staleness(), 0);
        // …and the flush records say why: every round filled the buffer
        // exactly, carried nothing and left nothing behind.
        assert_eq!(streaming.flush_count(), streaming.rounds.len());
        assert_eq!(
            streaming.flush_count_for(FlushTrigger::BufferFull),
            streaming.rounds.len()
        );
        assert_eq!(streaming.total_carried_updates(), 0);
        for record in &streaming.rounds {
            let flush = record.flush.as_ref().expect("streaming records flushes");
            assert_eq!(flush.buffer_fill, CLIENTS);
            assert_eq!(flush.arrivals, CLIENTS);
            assert_eq!(flush.remaining, 0);
        }
        // Sequential rounds record no flush bookkeeping at all.
        assert!(sequential.rounds.iter().all(|r| r.flush.is_none()));
    }
}

#[test]
fn degenerate_streaming_with_offline_draws_matches_the_deadline_backend() {
    let (fed, model) = setup();
    // Availability draws share one RNG stream across every scheduling
    // backend, so with offline probability in play the degenerate streaming
    // run reproduces the Deadline backend under an infinite deadline (the
    // buffer can no longer fill, so rounds drain instead) — not Sequential,
    // which trains everyone.
    let flaky =
        HeterogeneityModel::from_tiers(vec![
            fedft::core::DeviceTier::new("flaky", 1.0, 1.0).with_drop_probability(0.3)
        ]);
    let config = base_config().with_rounds(6).with_heterogeneity(flaky);
    let deadline = run(
        config.clone().with_execution(ExecutionBackend::Deadline),
        &fed,
        &model,
    );
    let streaming = run(
        config.clone().with_streaming(StreamingParams::new(CLIENTS)),
        &fed,
        &model,
    );
    assert_eq!(deadline.learning_history(), streaming.learning_history());
    assert!(
        streaming.total_dropped_clients() > 0,
        "a 30% offline probability over 6 rounds must produce drops"
    );
    assert!(
        streaming.flush_count_for(FlushTrigger::Drain) > 0,
        "rounds with offline drops cannot fill the buffer and must drain"
    );
    let sequential = run(config.serial(), &fed, &model);
    assert_ne!(sequential.learning_history(), streaming.learning_history());
}

#[test]
fn shallow_buffers_carry_stragglers_into_later_flushes() {
    let (fed, model) = setup();
    // A buffer shallower than the cohort flushes the abundant fast tier
    // and carries the rare slow tier's updates into later intervals (the
    // slow devices are ~6× the fast round time, so their round-0 updates
    // surface a few flushes later).
    let mix = HeterogeneityModel::from_tiers(vec![
        fedft::core::DeviceTier::new("fast", 0.85, 1.0),
        fedft::core::DeviceTier::new("slow", 0.15, 0.25).with_network(0.5, 0.5),
    ]);
    let config = base_config()
        .with_rounds(6)
        .with_heterogeneity(mix)
        .with_streaming(StreamingParams::new(CLIENTS / 2));
    let result = run(config, &fed, &model);
    assert!(
        result.total_carried_updates() > 0,
        "a shallow buffer over a two-tier mix must carry updates"
    );
    // Carried updates age past their dispatch round: staleness beyond the
    // (zero) dispatch bound appears in the records — FedBuff semantics.
    assert!(result.max_update_staleness() >= 1);
    assert!(result.stale_update_count() > 0);
    // Every aggregated update is accounted for exactly once: arrivals in
    // minus still-buffered out.
    let arrivals: usize = result
        .rounds
        .iter()
        .filter_map(|r| r.flush.as_ref().map(|f| f.arrivals))
        .sum();
    let left_behind = result
        .rounds
        .last()
        .and_then(|r| r.flush.as_ref().map(|f| f.remaining))
        .unwrap_or(0);
    assert_eq!(result.total_aggregated_updates(), arrivals - left_behind);
}

#[test]
fn flush_timers_close_rounds_on_schedule() {
    let (fed, model) = setup();
    let unbounded = run(
        base_config()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_streaming(StreamingParams::new(CLIENTS)),
        &fed,
        &model,
    );
    // A flush timer below the slowest round's wall clock must fire at least
    // once, and a timed-out round's wall clock is exactly the timer.
    let slowest_round = unbounded
        .rounds
        .iter()
        .map(|r| r.round_wall_seconds)
        .fold(0.0_f64, f64::max);
    let timer = slowest_round / 2.0;
    let timed = run(
        base_config()
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_streaming(StreamingParams::new(CLIENTS).with_flush_seconds(timer)),
        &fed,
        &model,
    );
    assert!(timed.flush_count_for(FlushTrigger::Timeout) > 0);
    for record in &timed.rounds {
        let flush = record.flush.as_ref().unwrap();
        assert!(record.round_wall_seconds <= timer + 1e-12);
        if flush.trigger == FlushTrigger::Timeout {
            assert_eq!(record.round_wall_seconds, timer);
        }
    }
}

#[test]
fn streaming_pool_respects_the_cache_byte_budget_under_churn() {
    // Streaming over a logical pool with bursty arrivals and a shallow
    // buffer: realistic churn against the shared cache registry. The cache
    // is still transparent (bit-identical history with it off), and a
    // half-working-set budget bounds the peak while forcing evictions —
    // over 120 logical clients on the suite's 12 shards, and over 100k
    // logical clients on 200 shards (~150 arrivals per flush interval into
    // a K=140 buffer): the registry holds one boundary per *shard*, so
    // neither the working set nor the contract moves with the cohort.
    for (shards, samples_per_class, logical, arrivals, buffer, rounds) in [
        (CLIENTS, 24, 10 * CLIENTS, 2 * CLIENTS, 12, 5),
        (200, 100, 100_000, 150, 140, 3),
    ] {
        let (fed, model) = setup_with(shards, samples_per_class);
        let params = StreamingParams::new(buffer)
            .with_max_staleness(2)
            .with_arrival(ArrivalModel::Burst {
                mean_offset_seconds: 2.0,
            });
        let pool = || {
            base_config()
                .with_rounds(rounds)
                .with_logical_clients(logical)
                .with_participation(arrivals as f64 / logical as f64)
                .with_heterogeneity(HeterogeneityModel::two_tier())
                .with_streaming(params)
        };
        let off = run(pool(), &fed, &model);
        let unbounded = run(pool().with_feature_cache(true), &fed, &model);
        assert_eq!(
            off.learning_history(),
            unbounded.learning_history(),
            "{logical} logical clients"
        );
        let full_bytes = unbounded.peak_cache_bytes();
        assert!(full_bytes > 0);

        let budget = full_bytes / 2;
        let budgeted = run(
            pool().with_feature_cache(true).with_cache_budget(budget),
            &fed,
            &model,
        );
        assert_eq!(
            off.learning_history(),
            budgeted.learning_history(),
            "{logical} logical clients"
        );
        assert!(
            budgeted.peak_cache_bytes() <= budget,
            "{logical} logical clients"
        );
        for record in &budgeted.rounds {
            assert!(
                record.cache_peak_bytes <= budget,
                "{logical} logical clients: round peak {} over the budget {budget}",
                record.cache_peak_bytes
            );
        }
        assert!(budgeted.total_cache_evictions() > 0);
        assert_eq!(budgeted.flush_count(), budgeted.rounds.len());
    }
}

#[test]
fn streaming_with_finite_deadline_is_rejected_at_construction() {
    let config = base_config()
        .with_streaming(StreamingParams::new(8))
        .with_deadline(5.0);
    assert!(Simulation::new(config).is_err());
}
