//! Criterion micro-benchmarks for the primitives every experiment is built
//! on: matrix multiplication, entropy-based selection, weighted
//! aggregation, and a single client local update — uncached (paper-faithful
//! workload) and with the frozen-feature cache.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fedft_core::{Client, ClientUpdate, FlConfig, SelectionContext, SelectionStrategy, Server};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, ParamVector};
use fedft_tensor::{init, rng, Matrix};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut r = rng::rng_for(seed, "bench");
    init::normal(&mut r, rows, cols, 0.0, 1.0)
}

fn bench_matmul(c: &mut Criterion) {
    let a = random_matrix(64, 128, 1);
    let b = random_matrix(128, 64, 2);
    c.bench_function("matmul_64x128x64", |bencher| {
        bencher.iter(|| a.matmul(&b).unwrap())
    });

    let big_a = random_matrix(512, 512, 6);
    let big_b = random_matrix(512, 512, 7);
    c.bench_function("matmul_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul(&big_b).unwrap())
    });
    c.bench_function("matmul_naive_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul_naive(&big_b).unwrap())
    });
    c.bench_function("matmul_tn_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul_tn(&big_b).unwrap())
    });
    c.bench_function("matmul_nt_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul_nt(&big_b).unwrap())
    });
}

fn bench_entropy_selection(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(200, 48, 4);
    let dataset = Dataset::new(features, (0..200).map(|i| i % 10).collect(), 10).unwrap();
    let eds = SelectionStrategy::Entropy {
        fraction: 0.1,
        temperature: 0.1,
    };
    let freeze = FreezeLevel::Classifier;
    let mut suffix = model.trainable_suffix(freeze);
    // The uncached path: the frozen prefix runs inside every selection pass.
    c.bench_function("entropy_selection_200_samples", |bencher| {
        bencher.iter(|| {
            let mut ctx = SelectionContext::with_lazy_boundary(
                &mut suffix,
                &model,
                freeze,
                dataset.features(),
                dataset.labels(),
                0,
                0,
                0,
            );
            eds.select(&mut ctx).unwrap()
        })
    });

    // The cached path: boundary activations precomputed once, every
    // selection pass runs the trainable suffix only.
    let boundary = model.forward_frozen(freeze, dataset.features()).unwrap();
    c.bench_function("entropy_selection_cached_200_samples", |bencher| {
        bencher.iter(|| {
            let mut ctx =
                SelectionContext::with_boundary(&mut suffix, &boundary, dataset.labels(), 0, 0, 0);
            eds.select(&mut ctx).unwrap()
        })
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let server = Server::new();
    let make_updates = |count: usize| -> Vec<ClientUpdate> {
        (0..count)
            .map(|id| ClientUpdate {
                client_id: id,
                theta: ParamVector::from_values(vec![id as f32; 10_000]),
                selected_samples: id + 1,
                local_samples: 100,
                train_loss: 0.1,
                compute_seconds: 1.0,
                cached_compute_seconds: 0.5,
            })
            .collect()
    };
    let updates = make_updates(50);
    c.bench_function("aggregate_50_clients_10k_params", |bencher| {
        bencher.iter(|| server.aggregate(&updates, 0).unwrap())
    });
    // 200 clients × 10k parameters = 2²¹ accumulation steps — over the
    // pooled-aggregation threshold, so this measures the worker-pool path
    // of `ParamVector::weighted_average_refs` (element-partitioned, still
    // bit-identical to the sequential loop).
    let large_cohort = make_updates(200);
    c.bench_function("aggregate_200_clients_10k_params", |bencher| {
        bencher.iter(|| server.aggregate(&large_cohort, 0).unwrap())
    });
}

fn bench_client_local_update(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(100, 48, 5);
    let dataset = Dataset::new(features, (0..100).map(|i| i % 10).collect(), 10).unwrap();
    let config = FlConfig::default()
        .with_rounds(1)
        .with_local_epochs(1)
        .with_batch_size(32)
        .with_selection(SelectionStrategy::Entropy {
            fraction: 0.1,
            temperature: 0.1,
        });
    c.bench_function("client_local_update_100_samples", |bencher| {
        bencher.iter_batched(
            || Client::new(0, dataset.clone()),
            |client| client.local_update(&model, &config, 0).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// The acceptance pair for the frozen-feature cache: the same local round at
/// `FreezeLevel::Classifier` (deepest frozen prefix, the paper's cheapest
/// client) with the cache off and on. The cached client is shared across
/// iterations so the steady-state (warm-cache) path dominates, mirroring a
/// multi-round run where the build cost amortises away.
fn bench_client_local_update_cached(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(100, 48, 5);
    let dataset = Dataset::new(features, (0..100).map(|i| i % 10).collect(), 10).unwrap();
    let base = FlConfig::default()
        .with_rounds(1)
        .with_local_epochs(1)
        .with_batch_size(32)
        .with_freeze(FreezeLevel::Classifier)
        .with_selection(SelectionStrategy::Entropy {
            fraction: 0.1,
            temperature: 0.1,
        });
    let uncached_cfg = base.clone();
    let cached_cfg = base.with_feature_cache(true);
    let client = Client::new(0, dataset);
    c.bench_function("client_local_update_classifier_uncached_100_samples", |b| {
        b.iter(|| client.local_update(&model, &uncached_cfg, 0).unwrap())
    });
    c.bench_function("client_local_update_classifier_cached_100_samples", |b| {
        b.iter(|| client.local_update(&model, &cached_cfg, 0).unwrap())
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul,
        bench_entropy_selection,
        bench_aggregation,
        bench_client_local_update,
        bench_client_local_update_cached
);
criterion_main!(micro);
